#!/usr/bin/env bash
# "Did this change move anything": extracts <base-ref> into a directory
# of its own, then runs `bash benchmark/run.sh --workload all` there and
# in this checkout in alternating order, [pairs] times (default 10).
# Workloads, metrics, directions and bounds come from BENCHMARK.json.
#
# Exit 1 when a run has a failed or incorrect operation or no result, or
# a count metric (unit "ratio": write_amp, space_amp — they repeat
# exactly) has a PR median worse than the parent's beyond its bound.
# Timing metrics are reported, not gated, on a shared runner. A timing
# metric is "better" (or "worse") only when the PR won (or lost) at
# least 9 of every 10 pairs, over at least 10 pairs, and the gap between
# the medians is wider than the parent runs' interquartile range. At any
# pair count it is "worse (beyond bound)" when the PR median is worse
# than the parent's by more than the metric's bound and the parent's own
# runs spread (max - min) no wider than that bound. Anything else is
# "unresolved"; fewer than 10 pairs can never read "better".
#
# --record appends the run as a point to BENCH_TRAJECTORY.json: commit,
# parent, date, seed and pairs, and per workload and metric the parent
# and PR medians, the parent's IQR, the pairs the PR won and the verdict.
#
#   ci/bench-compare.sh [--record] <base-ref> [pairs]
#   ci/bench-compare.sh --selftest      # canned results, no benchmark run
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# rows <side> <run>: one run's stdout on stdin -> "side run workload
# metric value" lines; failed operations (at least 1 for a result that
# is not correct) ride along as a metric named failed.
rows() {
	jq -Rrn --arg side "$1" --arg run "$2" '
		foreach inputs as $l (null;
			if $l | startswith("workload ") then $l | split(" ")[1] else . end;
			. as $w | $l | select(startswith("{\"correct\"")) | fromjson
			| (["failed", (if .correct then 0 else [.failed, 1] | max end)],
			   (.metrics | to_entries[] | [.key, .value.value]))
			| [$side, $run, $w] + . | @tsv)'
}

# verdict <pairs> [tsv]: rows on stdin -> the table on stdout, and one
# "workload metric parent PR parent-IQR won verdict" line per metric to
# tsv when given; exit 1 on a miss.
verdict() {
	awk -F'\t' -v pairs="$1" -v tsv="${2:-}" '
	function sorted(side, key, a,    i, j, t, k) {
		k = 0
		for (i = 1; i <= pairs; i++) if ((side, key, i) in v) a[++k] = v[side, key, i]
		for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return k
	}
	function median(a, k) { return k % 2 ? a[(k+1)/2] : (a[k/2] + a[k/2+1]) / 2 }
	# quantile q of sorted a[1..k], interpolating between ranks
	function quantile(a, k, q,    r, i) { r = 1 + q * (k - 1); i = int(r); return i >= k ? a[k] : a[i] + (r - i) * (a[i+1] - a[i]) }
	function abs(x) { return x < 0 ? -x : x }
	function fail(msg) { print "FAIL " msg; bad = 1 }
	$1 == "W" { wl[++nw] = $2; next }
	$1 == "M" { ms[++nm] = $2; lower[$2] = ($3 == "lower"); bound[$2] = $4; exact[$2] = ($5 == "ratio"); next }
	$4 == "failed" && $5 > 0 { fail($1 " run " $2 ", " $3 ": " $5 " failed or incorrect operation(s)") }
	{ key = $3 SUBSEP $4; v[$1, key, $2] = $5 }
	END {
		printf "%-14s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "PR", "delta", "bound", "verdict"
		for (w = 1; w <= nw; w++) {
			kb = sorted("base", wl[w] SUBSEP "failed", b); kh = sorted("head", wl[w] SUBSEP "failed", h)
			if (kb != pairs || kh != pairs) { fail(wl[w] ": a result from " kb " parent and " kh " PR runs of " pairs); continue }
			for (m = 1; m <= nm; m++) {
				key = wl[w] SUBSEP ms[m]
				kb = sorted("base", key, b); kh = sorted("head", key, h)
				if (kb + kh == 0) continue # this workload does not report this metric
				if (kb != pairs || kh != pairs) { fail(wl[w] " " ms[m] ": measured in " kb " parent and " kh " PR runs of " pairs); continue }
				p = median(b, kb); r = median(h, kh)
				delta = p == 0 ? 0 : (r - p) / p
				worse = lower[ms[m]] ? delta : -delta
				iqr = quantile(b, kb, 0.75) - quantile(b, kb, 0.25)
				won = lost = 0
				for (i = 1; i <= pairs; i++) {
					d = v["head", key, i] - v["base", key, i]
					if (lower[ms[m]] ? d < 0 : d > 0) won++
					else if (d != 0) lost++
				}
				if (exact[ms[m]]) {
					verdict = worse > bound[ms[m]] ? "WORSE (gated)" : b[1] == h[kh] && b[kb] == h[1] ? "identical" : worse < 0 ? "better" : "within bound"
					if (worse > bound[ms[m]]) bad = 1
				} else if (pairs >= 10 && abs(r - p) > iqr && won * 10 >= pairs * 9) verdict = "better"
				else if (pairs >= 10 && abs(r - p) > iqr && lost * 10 >= pairs * 9) verdict = "worse"
				else if (worse > bound[ms[m]] && (p == 0 ? 0 : (b[kb] - b[1]) / p) <= bound[ms[m]]) verdict = "worse (beyond bound)"
				else verdict = sprintf("unresolved (won %d/%d, gap %.3g vs IQR %.3g)", won, pairs, abs(r - p), iqr)
				printf "%-14s %-16s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", wl[w], ms[m], p, r, delta * 100, bound[ms[m]] * 100, verdict
				if (tsv != "") printf "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", wl[w], ms[m], p, r, iqr, won, (verdict ~ /^unresolved/ ? "unresolved" : verdict) > tsv
			}
		}
		exit bad
	}' <(jq -r '(.workloads[] | ["W", .name]), (.end_to_end[] | ["M", .name, .better, .bound, .unit]) | @tsv' BENCHMARK.json) -
}

if [ "${1:-}" = --selftest ]; then
	# canned <side> <run> <write_amp of wire-oltp> <failed> <ops_per_s>
	canned() {
		for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
			amp=1.5 && [ "$w" != wire-oltp ] || amp=$3
			printf 'workload %s seed 1\n{"correct":%s,"attempted":9,"failed":%s,"metrics":{"write_amp":{"value":%s,"unit":"ratio"},"ops_per_s":{"value":%s,"unit":"1/s"}}}\n' \
				"$w" "$([ "$4" = 0 ] && echo true || echo false)" "$4" "$amp" "$5"
		done | rows "$1" "$2"
	}
	# pairs <base ops_per_s...> -- <PR ops_per_s...>: run i of each side
	pairs() {
		local i=0 side=base
		for x in "$@"; do
			if [ "$x" = -- ]; then side=head i=0 && continue; fi
			i=$((i + 1)) && canned "$side" "$i" 1.5 0 "$x"
		done
	}
	# expect <pairs> <exit code> <pattern> <case name>: rows on stdin
	expect() {
		local out code=0
		out=$(verdict "$1") || code=$?
		if [ "$code" != "$2" ] || ! grep -q "$3" <<<"$out"; then
			echo "selftest $4: want exit $2 and /$3/, got exit $code:" >&2
			echo "$out" >&2
			exit 1
		fi
	}
	{ canned base 1 1.5 0 1000; canned base 2 1.5 0 1010; canned head 1 1.5 0 1000; canned head 2 1.5 0 1010; } |
		expect 2 0 'wire-oltp .*write_amp .*identical' "identical sides"
	{ canned base 1 1.5 0 1000; canned base 2 1.5 0 1000; canned head 1 1.545 0 1000; canned head 2 1.545 0 1000; } |
		expect 2 1 'wire-oltp .*write_amp .*+3.0% .*WORSE' "write_amp +3%"
	{ canned base 1 1.5 0 1000; canned base 2 1.5 0 1000; canned head 1 1.5 0 1000; canned head 2 1.5 1 1000; } |
		expect 2 1 'FAIL head run 2, wire-oltp: 1 failed' "a failed operation"
	{ canned base 1 1.5 0 1400; canned base 2 1.5 0 1000; canned head 1 1.5 0 800; canned head 2 1.5 0 640; } |
		expect 2 0 'wire-oltp .*ops_per_s .*-40.0% .*unresolved' "timing -40% inside the parent's spread"
	# Too few pairs for the 9/10 rule, but a tight parent and a median
	# beyond the bound: the regression still shows.
	{ canned base 1 1.5 0 1000; canned base 2 1.5 0 1010; canned head 1 1.5 0 700; canned head 2 1.5 0 710; } |
		expect 2 0 'wire-oltp .*ops_per_s .*worse (beyond bound)' "timing -30% outside a tight parent"
	# Shaped like a scan-rate gain measured over 10 pairs: the PR won 9,
	# its median sits far outside the parent's IQR, and one slow parent
	# run stretches the parent's full range to 48 % of its median.
	pairs 900 1000 1005 1010 1015 1020 1025 1030 1040 1390 -- 1400 1400 1400 1400 1400 1400 1400 1400 1400 1300 |
		expect 10 0 'wire-oltp .*ops_per_s .*+37.6% .* better$' "9/10 pairs, gap wider than the parent's IQR"
	# The same 9 wins, but a gap inside the parent's IQR resolves nothing.
	pairs 900 950 1000 1050 1100 1150 1200 1250 1300 1350 -- 901 951 1001 1051 1101 1151 1201 1251 1301 1349 |
		expect 10 0 'wire-oltp .*ops_per_s .*unresolved (won 9/10' "9/10 pairs, gap inside the parent's IQR"
	echo "bench-compare selftest: ok" && exit 0
fi

record=
if [ "${1:-}" = --record ]; then record=1 && shift; fi
base=${1:?usage: ci/bench-compare.sh [--record] <base-ref> [pairs] | --selftest}
pairs=${2:-10}
[ "$pairs" -ge 10 ] || echo "note: $pairs pairs are fewer than the 10 a timing metric needs to read better or worse by pairs won" >&2
work=.bench_build/compare # keeps each run's output and rows.tsv
rm -rf "$work" && mkdir -p "$work/base"
trap 'rm -rf "$work/base"' EXIT
git archive "$base" | tar -x -C "$work/base"
# run <side> <n>: a crashed run leaves no result line, which verdict reports.
run() {
	echo "pair $2 of $pairs: $1" >&2
	(cd "$([ "$1" = base ] && echo "$work/base" || echo .)" && bash benchmark/run.sh --workload all || true) |
		tee "$work/$1-$2.out" | rows "$1" "$2" >>"$work/rows.tsv"
}
for i in $(seq "$pairs"); do
	if [ $((i % 2)) = 1 ]; then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
done
code=0
verdict "$pairs" "$work/verdict.tsv" <"$work/rows.tsv" || code=$?
if [ -n "$record" ]; then
	head=$(git rev-parse --short HEAD)
	[ -z "$(git status --porcelain --untracked-files=no)" ] || head="$head+working-tree"
	point=$(jq -Rn --arg commit "$head" --arg parent "$(git rev-parse --short "$base")" \
		--arg date "$(date -u +%F)" --argjson pairs "$pairs" \
		--argjson seed "$(awk '$1 == "workload" { print $4; exit }' "$work/head-1.out")" '
		{commit: $commit, parent: $parent, date: $date, seed: $seed, pairs: $pairs, source: "ci/bench-compare.sh",
		 results: (reduce (inputs | split("\t")) as $r ({};
			.[$r[0]][$r[1]] = {parent: ($r[2] | tonumber), pr: ($r[3] | tonumber),
				parent_iqr: ($r[4] | tonumber), won: ($r[5] | tonumber), verdict: $r[6]}))}' <"$work/verdict.tsv")
	traj=BENCH_TRAJECTORY.json
	[ -f "$traj" ] || echo '[]' >"$traj"
	jq --argjson p "$point" '. + [$p]' "$traj" >"$traj.tmp" && mv "$traj.tmp" "$traj"
	echo "recorded a point for $head in $traj" >&2
fi
exit "$code"
