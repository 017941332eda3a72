#!/usr/bin/env bash
# Runs the committed mutants: each NNN-name.patch here is a unified diff
# against the tree whose header names a package ("Package: ./internal/mac")
# and a -run pattern ("Run: ^TestX$"). The named test must pass on the tree
# as it is; the script then applies the patch to a temporary copy, and the
# mutant is killed when the copy still compiles and that test fails there.
# A patch that no longer applies counts as not killed: re-make the mutant.
# Needs only git and go. Prints one line per mutant and killed / total, and
# exits 1 unless every mutant is killed.
#   bash testdata/mutants/run.sh         # every mutant
#   bash testdata/mutants/run.sh 003     # the mutants whose name starts 003
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

killed=0 total=0
for patch in testdata/mutants/"${1:-}"*.patch; do
	[ -e "$patch" ] || continue
	total=$((total + 1))
	name="$(basename "$patch" .patch)"
	pkg="$(sed -n 's/^Package: *//p' "$patch" | head -1)"
	run="$(sed -n 's/^Run: *//p' "$patch" | head -1)"
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "BAD HEADER  $name: needs Package: and Run: lines"
		continue
	fi
	if ! go test -count=1 -run "$run" "$pkg" >"$tmp/$name.log" 2>&1; then
		echo "NOT RUN     $name: $run fails on the unmutated tree"
		continue
	fi
	copy="$tmp/$name"
	mkdir -p "$copy"
	git ls-files -z --cached --others --exclude-standard |
		tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$copy"
	if ! (cd "$copy" && git apply "$root/$patch") >>"$tmp/$name.log" 2>&1; then
		echo "NO APPLY    $name: the patch no longer applies"
		continue
	fi
	if ! (cd "$copy" && go test -count=1 -run '^$' "$pkg") >>"$tmp/$name.log" 2>&1; then
		echo "NO BUILD    $name: the mutated $pkg does not compile"
		continue
	fi
	if (cd "$copy" && go test -count=1 -run "$run" "$pkg") >>"$tmp/$name.log" 2>&1; then
		echo "SURVIVED    $name: $run passes on the mutant"
		continue
	fi
	echo "killed      $name ($pkg $run)"
	killed=$((killed + 1))
	rm -rf "$copy"
done
echo "mutants killed: $killed / $total"
[ "$killed" -eq "$total" ]
