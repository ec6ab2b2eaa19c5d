// Command tdbcli runs TQuel statements (terminated by ';') and the server's
// admin verbs ("cache", "config", "stats", "help") against a temporal
// database: a tdbd server when -addr names one, otherwise a database it
// opens itself — the write-ahead log at -db, or memory.
//
// Usage:
//
//	tdbcli                                  # interactive, in-memory database
//	tdbcli -db path.wal                     # interactive, persisted to a log
//	tdbcli -addr 127.0.0.1:4791             # interactive client for tdbd
//	tdbcli -e 'statements'                  # execute and exit
//	tdbcli -f script.tq                     # run a script file
//	echo 'retrieve (f.rank);' | tdbcli ...  # piped input is a script
//	tdbcli load -addr ... -rel staff -from start -to stop < staff.csv
//
// An interactive session carries on past a failing statement; a script
// stops at the first one and exits non-zero.
//
// Example session:
//
//	tquel> create temporal relation faculty (name = string, rank = string) key (name);
//	tquel> range of f is faculty;
//	tquel> append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever;
//	tquel> retrieve (f.rank) where f.name = "Merrie";
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tdb"
	"tdb/server"
	"tdb/tquel"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "load" {
		runLoad(os.Args[2:])
		return
	}
	os.Exit(run())
}

func run() int {
	var (
		addr   = flag.String("addr", "", "tdbd address (empty = open -db in this process)")
		dbPath = flag.String("db", "", "write-ahead log path when -addr is empty (empty = in-memory)")
		sync   = flag.Bool("sync", false, "fsync the -db log after every transaction")
		expr   = flag.String("e", "", "statements to execute")
		file   = flag.String("f", "", "script file to execute")
	)
	flag.Parse()

	var (
		exec   backend
		banner string
	)
	if *addr != "" {
		c, err := server.Dial(*addr)
		if err != nil {
			return fail(err)
		}
		defer c.Close()
		exec, banner = remote(c), "connected to "+*addr
	} else {
		db, err := tdb.Open(*dbPath, tdb.Options{Sync: *sync})
		if err != nil {
			return fail(err)
		}
		defer db.Close()
		exec, banner = local(db), "tdb TQuel session"
	}

	in, interactive := io.Reader(os.Stdin), false
	switch {
	case *expr != "":
		in = strings.NewReader(*expr)
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	default:
		if stat, _ := os.Stdin.Stat(); stat != nil && stat.Mode()&os.ModeCharDevice != 0 {
			interactive = true
			fmt.Printf("%s — statements end with ';' (ctrl-D to quit, \"help;\" for commands)\n", banner)
		}
	}
	if !repl(in, exec, interactive) {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "tdbcli:", err)
	return 1
}

// A backend runs one piece of input — TQuel source, or an admin verb
// (server.Verb) — prints what it produced, and returns the error that
// stopped it, if any.
type backend func(src string) error

// local runs input against a database opened in this process.
func local(db *tdb.DB) backend {
	ses := tquel.NewSession(db)
	return func(src string) error {
		if run := server.Verb(src); run != nil {
			resp := run(db)
			return show(&resp)
		}
		outs, err := ses.Exec(src)
		for _, o := range outs {
			fmt.Println(o)
		}
		return err
	}
}

// remote ships input to a tdbd server; admin verbs travel as wire commands.
// A transport failure ends the process: nothing after it can be answered.
func remote(c *server.Client) backend {
	return func(src string) error {
		send := c.Exec
		if server.Verb(src) != nil {
			send, src = c.Command, strings.TrimSpace(src)
		}
		resp, err := send(src)
		if err != nil {
			os.Exit(fail(err))
		}
		return show(resp)
	}
}

// show prints a response's outcomes, or its cache statistics when it has
// none, and returns its error.
func show(resp *server.Response) error {
	for _, o := range resp.Outcomes {
		if o.Table != "" {
			fmt.Print(o.Table)
		} else if o.Msg != "" {
			fmt.Println(o.Msg)
		}
	}
	if resp.Cache != nil && len(resp.Outcomes) == 0 {
		fmt.Printf("%+v\n", *resp.Cache)
	}
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	return nil
}

// repl reads input from in and hands it to exec a statement group at a time:
// a line holding ';' ends a group, and so does the end of the input. It
// reports whether everything succeeded. Interactive sessions are prompted
// and carry on past an error; scripts stop at the first.
func repl(in io.Reader, exec backend, interactive bool) bool {
	prompt := func(p string) {
		if interactive {
			fmt.Print(p)
		}
	}
	var buf strings.Builder
	flush := func() bool {
		src := stripSemicolons(buf.String())
		buf.Reset()
		if strings.TrimSpace(src) == "" {
			return true
		}
		if err := exec(src); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		return true
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prompt("tquel> ")
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt("    -> ")
			continue
		}
		if !flush() && !interactive {
			return false
		}
		prompt("tquel> ")
	}
	prompt("\n")
	return flush()
}

// stripSemicolons removes statement terminators (TQuel itself has none;
// they are an interactive convenience). Semicolons inside string literals
// are preserved.
func stripSemicolons(src string) string {
	var b strings.Builder
	inString := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '"' && (i == 0 || src[i-1] != '\\'):
			inString = !inString
			b.WriteByte(c)
		case c == ';' && !inString:
			b.WriteByte(' ')
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
