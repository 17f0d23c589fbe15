package bench

import (
	"fmt"
	"io"
	"math"

	"dasc/internal/core"
)

// Trend is the direction the paper reports for a score series along a sweep.
type Trend int

const (
	// TrendNone makes no directional claim.
	TrendNone Trend = iota
	// TrendUp: scores increase along the sweep.
	TrendUp
	// TrendDown: scores decrease along the sweep.
	TrendDown
	// TrendUpThenFlat: scores increase then saturate (velocity/distance
	// sweeps where other constraints take over).
	TrendUpThenFlat
)

func (t Trend) String() string {
	switch t {
	case TrendUp:
		return "increasing"
	case TrendDown:
		return "decreasing"
	case TrendUpThenFlat:
		return "increasing-then-flat"
	default:
		return "none"
	}
}

// TrendSpec encodes one exhibit's paper claims: the expected score direction
// and whether the approaches must dominate the baselines.
type TrendSpec struct {
	Experiment string
	Score      Trend
	// ApproachesDominate asserts mean(G-G, Game, Game-5%, Greedy) ≥
	// mean(Closest, Random) on every sweep point.
	ApproachesDominate bool
}

// PaperTrends lists the directional claims of Figures 3–15 (Figure 2 and
// Table VI are single-point exhibits; the ablations are ours).
func PaperTrends() []TrendSpec {
	return []TrendSpec{
		{Experiment: "fig3", Score: TrendUp, ApproachesDominate: true},
		{Experiment: "fig4", Score: TrendUpThenFlat, ApproachesDominate: true},
		{Experiment: "fig5", Score: TrendDown, ApproachesDominate: true},
		{Experiment: "fig6", Score: TrendUp, ApproachesDominate: true},
		{Experiment: "fig7", Score: TrendDown, ApproachesDominate: true},
		{Experiment: "fig8", Score: TrendDown, ApproachesDominate: true},
		{Experiment: "fig9", Score: TrendUp, ApproachesDominate: true},
		{Experiment: "fig10", Score: TrendUp, ApproachesDominate: true},
		{Experiment: "fig11", Score: TrendUp, ApproachesDominate: true},
		{Experiment: "fig12", Score: TrendUpThenFlat, ApproachesDominate: true},
		{Experiment: "fig13", Score: TrendUpThenFlat, ApproachesDominate: true},
		{Experiment: "fig14", Score: TrendDown, ApproachesDominate: true},
		{Experiment: "fig15", Score: TrendUp, ApproachesDominate: true},
	}
}

// TrendResult is the verdict for one exhibit.
type TrendResult struct {
	Spec      TrendSpec
	ScoreOK   bool
	DominOK   bool
	Series    []float64 // mean approach score per point
	Baselines []float64 // mean baseline score per point
	Err       error
}

// OK reports whether every claim held.
func (r TrendResult) OK() bool { return r.Err == nil && r.ScoreOK && r.DominOK }

// VerifyTrend runs one exhibit and checks its claims. slack is the relative
// tolerance for direction checks (e.g. 0.1 forgives a 10% counter-move —
// single-seed runs are noisy; use repeats ≥ 3 for tighter slack).
func VerifyTrend(spec TrendSpec, opt RunOptions, slack float64) TrendResult {
	res := TrendResult{Spec: spec}
	e, err := Lookup(spec.Experiment)
	if err != nil {
		res.Err = err
		return res
	}
	tbl, err := e.Run(opt)
	if err != nil {
		res.Err = err
		return res
	}
	approaches := []string{core.NameGG, core.NameGame, core.NameGame5, core.NameGreedy}
	baselines := []string{core.NameClosest, core.NameRandom}
	for i := range tbl.Rows {
		res.Series = append(res.Series, meanOf(tbl.Rows[i], approaches))
		res.Baselines = append(res.Baselines, meanOf(tbl.Rows[i], baselines))
	}
	res.ScoreOK = directionHolds(res.Series, spec.Score, slack)
	res.DominOK = true
	if spec.ApproachesDominate {
		for i := range res.Series {
			if res.Series[i] < res.Baselines[i]*(1-slack) {
				res.DominOK = false
				break
			}
		}
	}
	return res
}

func meanOf(row map[string]Cell, labels []string) float64 {
	vals := make([]float64, 0, len(labels))
	for _, l := range labels {
		vals = append(vals, row[l].Score)
	}
	return mean(vals)
}

// mean returns the arithmetic mean, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// directionHolds checks a direction claim with relative slack.
func directionHolds(series []float64, trend Trend, slack float64) bool {
	if len(series) < 2 {
		return true
	}
	first, last := series[0], series[len(series)-1]
	switch trend {
	case TrendUp, TrendUpThenFlat:
		// Endpoint rise, allowing the saturating variant to end flat.
		return last >= first*(1-slack) && maxOfSeries(series) >= first
	case TrendDown:
		return last <= first*(1+slack)
	default:
		return true
	}
}

func maxOfSeries(s []float64) float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// VerifyAll runs every paper trend and writes a ✓/✗ report. It returns the
// number of failed exhibits.
func VerifyAll(w io.Writer, opt RunOptions, slack float64) (failed int, err error) {
	for _, spec := range PaperTrends() {
		r := VerifyTrend(spec, opt, slack)
		status := "✓"
		if !r.OK() {
			status = "✗"
			failed++
		}
		if r.Err != nil {
			if _, werr := fmt.Fprintf(w, "%s %-6s error: %v\n", status, spec.Experiment, r.Err); werr != nil {
				return failed, werr
			}
			continue
		}
		if _, werr := fmt.Fprintf(w, "%s %-6s score %-22s (measured %s) dominance=%v  approaches=%v\n",
			status, spec.Experiment, spec.Score, seriesDirection(r.Series), r.DominOK, compact(r.Series)); werr != nil {
			return failed, werr
		}
	}
	return failed, nil
}

// seriesDirection labels the measured endpoint movement.
func seriesDirection(s []float64) string {
	if len(s) < 2 {
		return "flat"
	}
	switch {
	case s[len(s)-1] > s[0]:
		return "up"
	case s[len(s)-1] < s[0]:
		return "down"
	default:
		return "flat"
	}
}

func compact(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(int(v*10)) / 10
	}
	return out
}
