package exper

import (
	"fmt"
	"math/rand"

	"dvsreject/internal/gen"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/stats"
)

// Exp16 — heterogeneous big.LITTLE partitioned rejection: the hetero
// solver ladder versus the exhaustive partitioned optimum as the
// big:little speed ratio grows, plus the certified optimality gap that
// the pooled LP-style relaxation (HeteroLowerBound) proves for
// HETERO-PART without any exhaustive reference. Ratio 1 is the
// identical-processor row: the same solvers E9 runs through the
// identical-processor wrappers.
func Exp16(o Options) (Table, error) {
	ratios := []float64{1, 2, 4}
	if o.Quick {
		ratios = []float64{2}
	}
	trials := o.trials(15)
	const n = 7 // (M+1)^n = 5^7 keeps the exhaustive reference tractable

	t := Table{
		ID:     "E16",
		Title:  "big.LITTLE rejection: cost ratios vs speed ratio (M=4: 2 big + 2 little, n=7)",
		Header: []string{"ratio", "HETERO-LTF", "HETERO-LS", "HETERO-PART", "cert. gap"},
		Notes: []string{
			"ratios are cost/OPT with OPT the exhaustive partitioned optimum",
			"cert. gap = mean certified (cost−LB)/cost of HETERO-PART from the pooled relaxation — proven without the exhaustive reference",
			"load scales with total smax so the platform sees load 1.5",
		},
	}
	for ri, ratio := range ratios {
		procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: 2, NLittle: 2, Ratio: ratio})
		if err != nil {
			return Table{}, err
		}
		smaxTotal := 0.0
		for _, p := range procs {
			smaxTotal += p.SMax
		}
		type res struct {
			ltf, ls, part, gap float64
			ok                 bool
		}
		rs, err := forEachTrial(o, trials, func(trial int) (res, error) {
			rng := rand.New(rand.NewSource(o.Seed + int64(ri)*811 + int64(trial)*1013))
			set, err := gen.Frame(rng, gen.Config{
				N: n, Load: 1.5 * smaxTotal, Deadline: 100,
				Penalty: gen.PenaltyModel(trial % 3),
			})
			if err != nil {
				return res{}, err
			}
			in := multiproc.HeteroInstance{Tasks: set, Procs: procs}
			opt, err := (multiproc.HeteroExhaustive{}).Solve(in)
			if err != nil {
				return res{}, err
			}
			ltf, err := (multiproc.HeteroLTFReject{}).Solve(in)
			if err != nil {
				return res{}, err
			}
			ls, err := (multiproc.HeteroLTFRejectLS{}).Solve(in)
			if err != nil {
				return res{}, err
			}
			cert, err := multiproc.SolveHeteroCertified(in, multiproc.HeteroPartition{})
			if err != nil {
				return res{}, err
			}
			if opt.Cost <= 0 {
				return res{}, nil
			}
			gap := cert.Gap
			if gap < 0 {
				gap = 0 // convex vectors always certify here
			}
			return res{
				ltf: ltf.Cost / opt.Cost, ls: ls.Cost / opt.Cost,
				part: cert.Cost / opt.Cost, gap: gap, ok: true,
			}, nil
		})
		if err != nil {
			return Table{}, err
		}
		var rLTF, rLS, rPart, rGap stats.Summary
		for _, r := range rs {
			if r.ok {
				rLTF.Add(r.ltf)
				rLS.Add(r.ls)
				rPart.Add(r.part)
				rGap.Add(r.gap)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", ratio),
			fmtRatio(rLTF.Mean(), rLTF.CI95()),
			fmtRatio(rLS.Mean(), rLS.CI95()),
			fmtRatio(rPart.Mean(), rPart.CI95()),
			fmt.Sprintf("%.4f", rGap.Mean()),
		})
	}
	return t, nil
}
