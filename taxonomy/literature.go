package taxonomy

// PriorTime is one row of Figure 1: how a prior publication characterized
// a kind of time, in terms of the paper's three attributes. The string
// fields preserve the figure's annotations (footnotes (1)-(4)).
type PriorTime struct {
	Reference      string
	Terminology    string
	AppendOnly     string // "Yes", "No", or an annotated variant
	AppIndependent string
	Representation string // "Representation", "Reality", or annotated/blank
}

// Figure1 is the paper's survey of previous characterizations of time.
var Figure1 = []PriorTime{
	{"[Ariav & Morgan 1982]", "Time", "Yes", "Yes", "Representation"},
	{"[Ben-Zvi 1982]", "Registration", "Yes", "Yes", "Representation"},
	{"[Ben-Zvi 1982]", "Effective", "No", "Yes", "Reality"},
	{"[Clifford & Warren 1983]", "State", "No", "Yes", ""},
	{"[Copeland & Maier 1984]", "Transaction", "Yes", "Yes", "Representation"},
	{"[Copeland & Maier 1984]", "Event (1)", "No", "No", "Reality"},
	{"[Dadam et al. 1984] & [Lum et al. 1984]", "Physical", "(2)", "Yes", "Representation"},
	{"[Dadam et al. 1984] & [Lum et al. 1984]", "Logical (1)", "No", "No", "Reality"},
	{"[Jones et al. 1979] & [Jones & Mason 1980]", "Start/End", "(2)", "Yes", "Reality"},
	{"[Jones et al. 1979] & [Jones & Mason 1980]", "User Defined", "No", "No", "Reality"},
	{"[Mueller & Steinbauer 1983]", "Data-Valid-Time-From/To", "(3)", "Yes", "Representation (4)"},
	{"[Reed 1978]", "Start/End", "Yes", "Yes", "Representation"},
	{"[Snodgrass 1984]", "Valid Time", "No", "Yes", "Reality"},
}

// Figure1Notes are the figure's footnotes.
var Figure1Notes = []string{
	"(1) Not actually supported by the system",
	"(2) Can make corrections only",
	"(3) Can make changes only in the future",
	"(4) Reality is indicated only in the future",
}

// SystemSupport is one row of Figure 13: which of the three (new) kinds of
// time an existing or proposed system supported.
type SystemSupport struct {
	Reference   string
	System      string
	Transaction bool
	Valid       bool
	UserDefined bool
}

// Figure13 is the paper's classification of existing and proposed systems
// under the new taxonomy.
var Figure13 = []SystemSupport{
	{"[Ariav & Morgan 1982]", "MDM/DB", true, false, false},
	{"[Ben-Zvi 1982]", "TRM", true, true, false},
	{"[Bontempo 1983]", "QBE", false, false, true},
	{"[Breutmann et al. 1979]", "CSL", false, true, false},
	{"[Clifford & Warren 1983]", "IL_s", false, true, false},
	{"[Copeland & Maier 1984]", "GemStone", true, false, false},
	{"[Findler & Chen 1971]", "AMPPL-II", false, true, false},
	{"[Jones & Mason 1980]", "LEGOL 2.0", false, true, true},
	{"[Klopprogge 1981]", "TERM", false, true, false},
	{"[Lum et al. 1984]", "AIM", true, false, false},
	{"[Relational 1984]", "MicroINGRES", false, false, true},
	{"[Mueller & Steinbauer 1983]", "", true, false, false},
	{"[Overmyer & Stonebraker 1982]", "INGRES", false, false, true},
	{"[Reed 1978]", "SWALLOW", true, false, false},
	{"[Snodgrass 1985]", "TQuel", true, true, true},
	{"[Tandem 1983]", "ENFORM", false, false, true},
	{"[Wiederhold et al. 1975]", "TODS", false, true, false},
}
