#!/usr/bin/env bash
# Byte-identity gate: run the qbrach CLI from two source trees over a fixed
# list of commands and cmp every output file, stdout, stderr and exit code.
#
#   tools/cmp_outputs.sh PARENT_TREE CHANGE_TREE
#
# Each tree is a checkout whose package lies in <tree>/src.  Exits 1 and
# lists the differing files, each with where cmp saw the first difference, if
# any pair differs, or if report-all --seed 7 of CHANGE_TREE differs from
# <CHANGE_TREE>/bench/reference/report-all-seed7.json.
# The outputs stay in a new directory under ${TMPDIR:-/tmp}, named at the end.
set -u -f  # -f: a '*' in a command is part of an angle, not a file pattern
[ $# -eq 2 ] || { echo "usage: $0 PARENT_TREE CHANGE_TREE" >&2; exit 2; }
work=$(mktemp -d)
mp=(--m 1 --px 1 --py 1 --pz 1)
cmds=()
for s in 1 2 3 7 99 12345; do cmds+=("report-all --seed $s --out report-all-$s.json"); done
for s in 7 8 123; do cmds+=("angmom-conserve --seed $s --out angmom-conserve-$s.json"); done
cmds+=("evolve --m 1.3 --px 0.5 --py -2 --pz 1.25 --t-end 1 --step 1e-4 --out evolve-bench.csv"
       "evolve --m 0 --px 0 --py 0 --pz -0.0 --t-end 1 --step 1e-3 --out evolve-zero.csv"
       "evolve ${mp[*]} --t-end=1000 --step=10 --out evolve-diverging.csv")
# Block edges of evolve's audit: BLOCK_SAMPLES + 1 rows (a last block of one
# row), and a single step (2 rows).
cmds+=("evolve --m 0.7 --px -1.5 --py 0 --pz 2.25 --t-end=0.256 --step=1e-3 --out evolve-257.csv"
       "evolve --m 0.7 --px -1.5 --py 0 --pz 2.25 --t-end=1e-3 --step=1e-3 --out evolve-2.csv")
# Block edges of the other blocked loops, each over BLOCK_SAMPLES + 1 samples
# (a last block of one sample): both audits of angmom-conserve, the classifier's
# time grid and verify_conservation's blocked path.
cmds+=("angmom-conserve --seed 7 --t-end=0.256 --step=1e-3 --out angmom-conserve-257.json"
       "classify-mass --rep majorana ${mp[*]} --samples 257 --out classify-majorana-257.json"
       "compton --rep gamma --m 1 --omega1 1 --theta-grid 0:pi:257 --out compton-257.csv")
for r in majorana dirac; do cmds+=("classify-mass --rep $r ${mp[*]} --out classify-$r.json"); done
# At m = 0 each builder's mass generator goes through the zero series of
# mass_series_from_pairs.
for r in majorana dirac; do
  cmds+=("classify-mass --rep $r --m 0 --px 0.5 --py 0 --pz 1 --out classify-$r-m0.json")
done
for r in gamma majorana; do
  cmds+=("compton --rep $r --m 1 --omega1 1 --theta-grid 0:pi:300 --out compton-$r.csv")
done
# Accepted angle forms: signed literals, coefficients and fractions of pi, and
# exponent, decimal and inf parts.
cmds+=("compton --rep gamma --m 1 --omega1 1 --theta-grid=-0:+pi:17 --out compton-signed.csv"
       "compton --rep majorana --m 1 --omega1 1 --theta-grid=pi/4:3*pi/4:9 --out compton-pi.csv"
       "compton --rep majorana --m 1 --omega1 1 --theta-grid=pi/inf:1e-1*pi/.5:7 --out compton-parts.csv")
for r in majorana dirac gamma; do cmds+=("verify-algebra --rep $r --out algebra-$r.json"); done
for m in 1 1e3; do cmds+=("frames --m $m --px 1 --py 1 --pz 1 --t 0.7 --out frames-$m.json"); done
# frames at the pivoted frame (p_y = m = 0), at a long time and at another seed.
cmds+=("frames --m 0 --px 1 --py 0 --pz 1 --t 0.7 --out frames-pivoted.json"
       "frames ${mp[*]} --t 1e6 --out frames-long.json"
       "frames --m 0.3 --px -2 --py 0.5 --pz 1.5 --t 2.9 --seed 5 --out frames-seed5.json")
# angmom at angles too large for cos and sin: a NaN propagator, whose
# entries are rendered as "nan" strings.
cmds+=("angmom --nx 1 --lyz 2 --t 0.5 --out angmom.json"
       "angmom --nx 1e300 --lyz 1e300 --t 1e10 --out angmom-nan.json")
# Every representation at zero input, where a signed zero of a
# representation's matrices could reach an output.
cmds+=("classify-mass --rep dirac --m 0 --px 0 --py 0 --pz -0.0 --out classify-dirac-zero.json"
       "classify-mass --rep majorana --m -0.0 --px 0 --py -0.0 --pz 0 --out classify-majorana-zero.json"
       "frames --m -0.0 --px -0.0 --py 0 --pz -0.0 --t 0.7 --out frames-zero.json"
       "compton --rep majorana --m 1 --omega1 1 --theta-grid 0:0:2 --out compton-zero.csv")
# Documented refusals: each exits 2 and writes no file, but the diverging
# flow, which exits 3; the gate compares their stderr and exit codes.
cmds+=("evolve --m 1e200 ${mp[*]:2} --t-end 1 --step 0.1 --out refuse-e2.csv"
       "evolve --m 1e154 ${mp[*]:2} --t-end 1 --step 0.1 --out refuse-k.csv"
       "evolve ${mp[*]} --t-end 1 --step 0.3 --out refuse-grid.csv"
       "classify-mass --rep majorana ${mp[*]} --t-end 1e-12 --out refuse-span.json"
       "classify-mass --rep majorana ${mp[*]} --samples 3 --out refuse-step.json"
       "compton --rep gamma --m 1e-308 --omega1 1 --theta-grid 0:pi:4 --out refuse-omega2.csv"
       "frames ${mp[*]} --t 1e308 --out refuse-phase.json"
       "angmom-conserve --seed 1 --t-end 1e300 --step 1e296 --out refuse-diverging.json"
       "evolve ${mp[*]} --t-end 1 --step 0 --out refuse-step-zero.csv"
       "evolve ${mp[*]} --t-end 1 --step 1e-7 --out refuse-step-cap.csv"
       "evolve ${mp[*]} --t-end 0.1 --step 1 --out refuse-step-round.csv"
       "classify-mass --rep majorana --m 1e200 ${mp[*]:2} --out refuse-classify-e2.json"
       "classify-mass --rep dirac ${mp[*]} --t-end 0 --out refuse-no-span.json"
       "compton --rep gamma --m 1 --omega1 1 --theta-grid 0:4:4 --out refuse-theta.csv"
       "compton --rep majorana --m 0 --omega1 1 --theta-grid 0:pi:4 --out refuse-mass.csv")

run() {  # run() SIDE TREE: every command from TREE, its files saved under $work/SIDE
  local src
  src="$(cd "$2" && pwd)/src"
  mkdir -p "$work/$1"
  for i in "${!cmds[@]}"; do
    (cd "$work/$1" && PYTHONPATH="$src" ${PYTHON:-python3} -m qbrach.cli ${cmds[$i]} \
       >"cmd$i.stdout" 2>"cmd$i.stderr"; echo $? >"cmd$i.exit")
  done
}
run parent "$1"
run change "$2"

diffs=$( (ls "$work/parent"; ls "$work/change") | sort -u | while read -r f; do
  why=$(cmp "$work/parent/$f" "$work/change/$f" 2>&1) || echo "differs: $f (${why##*: })"
done )
cmp -s "$work/change/report-all-7.json" "$2/bench/reference/report-all-seed7.json" \
  || diffs+=$'\n'"differs: report-all-7.json from bench/reference/report-all-seed7.json"
echo "$(ls "$work/parent" | wc -l) files compared in $work"
[ -z "$diffs" ] || { echo "${diffs#$'\n'}"; exit 1; }
