#!/usr/bin/env bash
# unreached.sh — list the functions no binary links.
#
# Builds every `package main` in the module (cmd/*, examples/*, bench) with
# inlining off (-gcflags=all=-l), so that every function a binary calls keeps
# its own symbol, and reads the linked text symbols with `go tool nm`. It then
# prints, as `file:line symbol`, each function or method declared in a
# non-test file of a non-main package that none of those binaries links, and
# the count on the last line. Unit tests may still call what it lists, and
# some of it is public API kept on purpose; the list is a report to read, not
# a gate. Run from anywhere in the module: `scripts/unreached.sh` or
# `make unreached`.
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
cat "$work/unreached"
echo "unreached: $(wc -l <"$work/unreached") functions"
