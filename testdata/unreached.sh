#!/usr/bin/env bash
# Reports the statements no test reaches. Runs the whole suite once with
# coverage of every package under internal/ and the root package, counts a
# block as reached when any package's tests reach it, and prints the
# unreached statements of each package (most first) and in total, out of
# all statements. It exits 1 when the suite itself fails or when the total
# is not the ceiling committed in testdata/unreached.ceiling. A change that
# leaves new statements unreached must test them, delete them or, with a
# reason, raise the ceiling; one that reaches more must commit the lower
# total it prints, so the ceiling only comes down. Needs only go and awk;
# takes about 35 s.
#   bash testdata/unreached.sh
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT
ceiling="$(cat testdata/unreached.ceiling)"
go test -count=1 -coverpkg=./internal/...,. -coverprofile="$profile" ./... >/dev/null
awk -v module="$(go list -m)/" -v ceiling="$ceiling" '
	NR == 1 { next } # the mode line
	{
		stmts[$1] = $2
		if ($3 > 0) reached[$1] = 1
	}
	END {
		for (b in stmts) {
			total += stmts[b]
			if (b in reached) continue
			pkg = substr(b, 1, index(b, ":") - 1)
			sub(/\/[^\/]*$/, "", pkg)
			pkg = substr(pkg, length(module) + 1)
			if (pkg == "") pkg = "."
			if (!(pkg in by)) names[n++] = pkg
			by[pkg] += stmts[b]
			unreached += stmts[b]
		}
		for (i = 0; i < n; i++) { # most first, then by name
			for (j = i + 1; j < n; j++) {
				if (by[names[j]] > by[names[i]] || (by[names[j]] == by[names[i]] && names[j] < names[i])) {
					t = names[i]; names[i] = names[j]; names[j] = t
				}
			}
			printf "%5d  %s\n", by[names[i]], names[i]
		}
		printf "unreached statements: %d of %d (ceiling %d)\n", unreached, total, ceiling
		if (unreached > ceiling) {
			printf "more unreached statements than testdata/unreached.ceiling allows\n"
			exit 1
		}
		if (unreached < ceiling) {
			printf "fewer unreached statements than the ceiling: commit %d to testdata/unreached.ceiling\n", unreached
			exit 1
		}
	}
' "$profile"
