#!/usr/bin/env bash
# Non-test, non-generated Go lines per top-level package directory
# (benchmark/ excluded: it is the fixed point, not the program), and the
# delta against the merge base with origin/main. ROADMAP aim 2: "net LOC
# per PR is reported; growth needs a reason". Two subtotals keep the
# system apart from what reproduces the paper's evaluation around it:
# "reproduction harness" is internal/bench, the baselines and workload
# generators only it imports (internal/{hbase,lrs,lsm,sstable,ycsb,tpcw})
# and cmd/logbase-bench; "program" is everything else.
#
#   ci/loc.sh [base-ref]     # default base: git merge-base HEAD origin/main
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# count <ref|""> prints "<lines> <dir>" per package directory; an empty
# ref counts the working tree.
count() {
	local ref=$1 files
	if [ -n "$ref" ]; then
		files=$(git ls-tree -r --name-only "$ref")
	else
		files=$(git ls-files --cached --others --exclude-standard)
	fi
	echo "$files" | grep '\.go$' | grep -v '_test\.go$' | grep -v '^benchmark/' | sort -u |
		while read -r f; do
			if [ -n "$ref" ]; then src=$(git show "$ref:$f"); else src=$(cat "$f" 2>/dev/null) || continue; fi
			if head -5 <<<"$src" | grep -q '^// Code generated .* DO NOT EDIT\.$'; then continue; fi
			echo "$(wc -l <<<"$src") $(dirname "$f")"
		done | awk '{n[$2] += $1} END {for (d in n) print n[d], d}'
}

base=${1:-$(git merge-base HEAD origin/main 2>/dev/null || true)}
{
	count "" | sed 's/^/head /'
	if [ -n "$base" ]; then count "$base" | sed 's/^/base /'; fi
} | awk -v base="${base:0:7}" '
	function row(name, h, b) {
		printf "%-28s %8d", name, h
		if (base != "") printf " %8d %+7d", b, h - b
		print ""
	}
	{ n[$1, $3] = $2; dirs[$3] = 1 }
	END {
		printf "%-28s %8s", "package dir", "lines"
		if (base != "") printf " %8s %7s", "@" base, "delta"
		print ""
		for (d in dirs) {
			h = n["head", d] + 0; b = n["base", d] + 0; th += h; tb += b
			if (d ~ /^(internal\/(bench|hbase|lrs|lsm|sstable|ycsb|tpcw)|cmd\/logbase-bench)$/) { hh += h; hb += b }
			line = sprintf("%-28s %8d", d, h)
			if (base != "") line = line sprintf(" %8d %+7d", b, h - b)
			print line | "sort"
		}
		close("sort")
		row("program", th - hh, tb - hb)
		row("reproduction harness", hh, hb)
		row("total", th, tb)
	}'
