#!/usr/bin/env bash
# "Did this change move anything": extracts <base-ref> into a directory
# of its own, then runs `bash benchmark/run.sh --workload all` there and
# in this checkout in alternating order, [pairs] times (default 3).
# Workloads, metrics, directions and bounds come from BENCHMARK.json.
#
# Exit 1 when a run has a failed or incorrect operation or no result, or
# a count metric (unit "ratio": write_amp, space_amp — they repeat
# exactly) has a PR median worse than the parent's beyond its bound.
# Timing metrics are reported, not gated, on a shared runner: better /
# within bound / worse by the medians, or unresolved when the parent's
# own runs spread wider than the bound (unless every PR run beats every
# parent run).
#
#   ci/bench-compare.sh <base-ref> [pairs]
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

# verdict <pairs>: rows on stdin -> the table on stdout; exit 1 on a miss.
verdict() {
	awk -F'\t' -v pairs="$1" '
	function sorted(side, key, a,    i, j, t, k) {
		k = n[side, key]
		for (i = 1; i <= k; i++) a[i] = v[side, key, i]
		for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return k
	}
	function median(a, k) { return k % 2 ? a[(k+1)/2] : (a[k/2] + a[k/2+1]) / 2 }
	function fail(msg) { print "FAIL " msg; bad = 1 }
	$1 == "W" { wl[++nw] = $2; next }
	$1 == "M" { ms[++nm] = $2; lower[$2] = ($3 == "lower"); bound[$2] = $4; exact[$2] = ($5 == "ratio"); next }
	$4 == "failed" && $5 > 0 { fail($1 " run " $2 ", " $3 ": " $5 " failed or incorrect operation(s)") }
	{ key = $3 SUBSEP $4; v[$1, key, ++n[$1, key]] = $5 }
	END {
		printf "%-14s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "PR", "delta", "bound", "verdict"
		for (w = 1; w <= nw; w++) {
			kb = n["base", wl[w] SUBSEP "failed"] + 0; kh = n["head", wl[w] SUBSEP "failed"] + 0
			if (kb != pairs || kh != pairs) { fail(wl[w] ": a result from " kb " parent and " kh " PR runs of " pairs); continue }
			for (m = 1; m <= nm; m++) {
				key = wl[w] SUBSEP ms[m]
				kb = sorted("base", key, b); kh = sorted("head", key, h)
				if (kb + kh == 0) continue # this workload does not report this metric
				if (kb != pairs || kh != pairs) { fail(wl[w] " " ms[m] ": measured in " kb " parent and " kh " PR runs of " pairs); continue }
				p = median(b, kb); r = median(h, kh)
				delta = p == 0 ? 0 : (r - p) / p
				worse = lower[ms[m]] ? delta : -delta
				spread = p == 0 ? 0 : (b[kb] - b[1]) / p
				apart = lower[ms[m]] ? h[kh] < b[1] : h[1] > b[kb]
				if (exact[ms[m]]) {
					verdict = worse > bound[ms[m]] ? "WORSE (gated)" : b[1] == h[kh] && b[kb] == h[1] ? "identical" : worse < 0 ? "better" : "within bound"
					if (worse > bound[ms[m]]) bad = 1
				} else if (spread > bound[ms[m]]) verdict = apart ? "better" : sprintf("unresolved (parent spread %.0f%%)", spread * 100)
				else verdict = worse > bound[ms[m]] ? "worse" : worse < -bound[ms[m]] ? "better" : "within bound"
				printf "%-14s %-16s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", wl[w], ms[m], p, r, delta * 100, bound[ms[m]] * 100, verdict
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
	# expect <exit code> <pattern> <case name>: rows on stdin
	expect() {
		local out code=0
		out=$(verdict 2) || code=$?
		if [ "$code" != "$1" ] || ! grep -q "$2" <<<"$out"; then
			echo "selftest $3: want exit $1 and /$2/, got exit $code:" >&2
			echo "$out" >&2
			exit 1
		fi
	}
	{ canned base 1 1.5 0 1000; canned base 2 1.5 0 1010; canned head 1 1.5 0 1000; canned head 2 1.5 0 1010; } |
		expect 0 'wire-oltp .*write_amp .*identical' "identical sides"
	{ canned base 1 1.5 0 1000; canned base 2 1.5 0 1000; canned head 1 1.545 0 1000; canned head 2 1.545 0 1000; } |
		expect 1 'wire-oltp .*write_amp .*+3.0% .*WORSE' "write_amp +3%"
	{ canned base 1 1.5 0 1000; canned base 2 1.5 0 1000; canned head 1 1.5 0 1000; canned head 2 1.5 1 1000; } |
		expect 1 'FAIL head run 2, wire-oltp: 1 failed' "a failed operation"
	{ canned base 1 1.5 0 1400; canned base 2 1.5 0 1000; canned head 1 1.5 0 800; canned head 2 1.5 0 640; } |
		expect 0 'wire-oltp .*ops_per_s .*-40.0% .*unresolved' "timing -40% inside the parent's spread"
	echo "bench-compare selftest: ok" && exit 0
fi

base=${1:?usage: ci/bench-compare.sh <base-ref> [pairs] | --selftest}
pairs=${2:-3}
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
verdict "$pairs" <"$work/rows.tsv"
