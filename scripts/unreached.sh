#!/usr/bin/env bash
# unreached.sh — fail on functions no binary links, unless kept on purpose.
#
# Builds every `package main` in the module (cmd/*, examples/*, bench) with
# inlining off (-gcflags=all=-l), so that every function a binary calls keeps
# its own symbol, and reads the linked text symbols with `go tool nm`. Each
# function or method declared in a non-test file of a non-main package that
# none of those binaries links is unreached. scripts/unreached.allow lists
# the unreached functions kept on purpose, one symbol per line followed by
# its reason. The script prints, as `file:line symbol`, each unreached
# function the allow file does not list, and each allow line that has no
# reason or whose function is now linked or no longer declared; it exits 1
# if it printed any. Run from anywhere in the module: `scripts/unreached.sh`
# or `make unreached`.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
work=$(mktemp -d "${TMPDIR:-/tmp}/unreached.XXXXXX")
trap 'rm -rf "$work"' EXIT

mains=$($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
mkdir -p "$work/bin"
# shellcheck disable=SC2086 # one argument per package
$GO build -gcflags=all=-l -o "$work/bin/" $mains

# Linked text symbols, with type arguments ("[...]") erased so that a
# generic function's instances match its declaration.
for b in "$work"/bin/*; do
	$GO tool nm "$b"
done | awk '
	$(NF - 1) ~ /^[Tt]$/ {
		s = $0
		sub(/^ *[0-9a-f]* +[Tt] +/, "", s)
		while (gsub(/\[[^][]*\]/, "", s)) {}
		print s
	}' | sort -u >"$work/linked"

# Declared functions of the non-main packages, as "file:line symbol", the
# symbol spelled the way the linker names it.
$GO list -f '{{if ne .Name "main"}}{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... |
	while read -r pkg file; do
		awk -v pkg="$pkg" -v file="${file#"$PWD"/}" '
			/^func / {
				line = substr($0, 6)
				recv = ""
				if (line ~ /^\(/) {
					recv = substr(line, 2, index(line, ")") - 2)
					line = substr(line, index(line, ")") + 2)
					n = split(recv, f, " ")
					recv = f[n]
					while (gsub(/\[[^][]*\]/, "", recv)) {}
					recv = recv ~ /^\*/ ? "(" recv ")." : recv "."
				}
				match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
				name = substr(line, RSTART, RLENGTH)
				if (name == "init" || name == "_") next
				print file ":" FNR " " pkg "." recv name
			}' "$file"
	done >"$work/declared"

awk 'NR == FNR { linked[$0] = 1; next } !($2 in linked)' "$work/linked" "$work/declared" >"$work/unreached"

# The allow file against both lists: "allow:line symbol: problem" for a bad
# line, then "file:line symbol" for an unreached function it does not list.
awk -v allow=scripts/unreached.allow '
	FILENAME == ARGV[1] { linked[$0] = 1; next }
	FILENAME == ARGV[2] { declared[$2] = 1; next }
	FILENAME == ARGV[3] {
		if ($0 ~ /^[ \t]*(#|$)/) next
		n++
		if (NF < 2) { print allow ":" FNR " " $1 ": no reason"; bad++ }
		else if (!($1 in declared)) { print allow ":" FNR " " $1 ": no longer declared"; bad++ }
		else if ($1 in linked) { print allow ":" FNR " " $1 ": now linked"; bad++ }
		allowed[$1] = 1
		next
	}
	{ total++ }
	!($2 in allowed) { print; bad++; unlisted++ }
	END {
		printf "unreached: %d functions, %d not in %s; %d allow lines, %d stale or without a reason\n",
			total, unlisted, allow, n, bad - unlisted
		exit bad > 0
	}' "$work/linked" "$work/declared" scripts/unreached.allow "$work/unreached"
