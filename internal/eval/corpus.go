package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/workloads/corpus"
	"repro/portend"
)

// The corpus harness: streams every labeled corpus program through the
// public portend facade, tallies verdicts against ground truth, and
// renders the result as per-class precision/recall, a confusion matrix,
// and throughput — the accuracy trend line that sits beside the BENCH_*
// speed trend. The machine-readable form (CorpusDoc, CORPUS_<n>.json) is
// what the CI corpus-accuracy job gates against.

// corpusClasses orders the taxonomy for confusion-matrix axes. The order
// matches the core.Class iota, so int(class) indexes it directly.
var corpusClasses = []core.Class{
	core.SpecViolated, core.OutputDiffers, core.KWitnessHarmless, core.SingleOrdering,
}

// CorpusOutcome pairs one classified race of one corpus program with its
// label.
type CorpusOutcome struct {
	Program string
	Family  corpus.Family
	Global  string

	// Known marks races with a ground-truth label; the corpus invariant
	// (asserted by the tests) is that every race is labeled.
	Known bool
	// KnownMiss marks labels whose expected Portend verdict deliberately
	// differs from truth (the solver-blind idiom).
	KnownMiss bool

	Truth core.Class // ground truth (valid when Known)
	Want  core.Class // the verdict Portend is expected to produce
	Got   core.Class // the verdict Portend produced
}

// CorpusResult is a full corpus evaluation.
type CorpusResult struct {
	Seed      uint64
	PerFamily int

	Programs  int
	Curated   int
	Generated int

	Outcomes []CorpusOutcome

	// Duration is the wall-clock time of the analysis loop (compile +
	// detection + classification for every program, sequentially).
	Duration time.Duration
}

// RunCorpus evaluates every corpus program under the given options,
// through the public portend facade — the same path as every other
// consumer. Programs run sequentially (each one parallelizes internally
// per opts.Parallel), so outcome order is deterministic.
func RunCorpus(progs []*corpus.Program, opts core.Options) *CorpusResult {
	res := &CorpusResult{Programs: len(progs)}
	a := portend.New(portend.WithEngineOptions(opts))
	start := time.Now()
	for _, cp := range progs {
		if cp.Generated {
			res.Generated++
		} else {
			res.Curated++
		}
		if cp.Seed != 0 {
			res.Seed = cp.Seed
		}
		p := cp.Compile()
		target := portend.Compiled(cp.Name, p).WithArgs(cp.Args...).WithInputs(cp.Inputs...)
		rep, err := a.AnalyzeAll(context.Background(), target)
		if err != nil {
			// Background context + precompiled target leave no terminal
			// failure mode; anything else is a corpus bug.
			panic(fmt.Sprintf("eval: corpus analysis of %s: %v", cp.Name, err))
		}
		for _, v := range rep.Raw().Verdicts {
			exp, name, known := cp.ExpectedFor(p, v.Race.Loc)
			res.Outcomes = append(res.Outcomes, CorpusOutcome{
				Program:   cp.Name,
				Family:    cp.Family,
				Global:    name,
				Known:     known,
				KnownMiss: cp.KnownMiss[name],
				Truth:     exp.Truth,
				Want:      exp.Portend,
				Got:       v.Class,
			})
		}
	}
	res.Duration = time.Since(start)
	return res
}

// RunCorpusAt evaluates the (seed, perFamily) corpus suite at the given
// worker-pool width — the convenience cmd/paper-eval calls, mirroring how
// Options keeps engine configuration out of the command layer.
func RunCorpusAt(seed uint64, perFamily, parallel int) *CorpusResult {
	return RunCorpus(corpus.Suite(seed, perFamily), Options(parallel))
}

// Races counts classified races; Labeled those with ground truth.
func (r *CorpusResult) Races() int { return len(r.Outcomes) }

// Labeled counts outcomes carrying a ground-truth label.
func (r *CorpusResult) Labeled() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Known {
			n++
		}
	}
	return n
}

// Accuracy counts verdicts matching ground truth over labeled races.
func (r *CorpusResult) Accuracy() (correct, total int) {
	for _, o := range r.Outcomes {
		if !o.Known {
			continue
		}
		total++
		if o.Got == o.Truth {
			correct++
		}
	}
	return
}

// ExpectedMatch counts verdicts matching the *expected Portend* label —
// truth, except where a known miss is recorded. This is the engine-
// regression criterion: it must be 100% on the shipped corpus.
func (r *CorpusResult) ExpectedMatch() (correct, total int) {
	for _, o := range r.Outcomes {
		if !o.Known {
			continue
		}
		total++
		if o.Got == o.Want {
			correct++
		}
	}
	return
}

// Mismatches returns labeled outcomes whose verdict differs from the
// expected Portend verdict — each one an engine regression (or a corpus
// labeling bug).
func (r *CorpusResult) Mismatches() []CorpusOutcome {
	var out []CorpusOutcome
	for _, o := range r.Outcomes {
		if o.Known && o.Got != o.Want {
			out = append(out, o)
		}
	}
	return out
}

// Confusion returns the 4×4 ground-truth × predicted matrix over labeled
// races, axes ordered as corpusClasses (specViol, outDiff, k-witness,
// singleOrd).
func (r *CorpusResult) Confusion() [4][4]int {
	var m [4][4]int
	for _, o := range r.Outcomes {
		if !o.Known {
			continue
		}
		ti, gi := int(o.Truth), int(o.Got)
		if ti < 4 && gi < 4 {
			m[ti][gi]++
		}
	}
	return m
}

// ClassTally is one class's precision/recall counts against ground truth.
type ClassTally struct {
	Class      core.Class
	TP, FP, FN int
}

// Tallies computes per-class true/false positives and false negatives
// against ground truth over labeled races.
func (r *CorpusResult) Tallies() []ClassTally {
	m := r.Confusion()
	out := make([]ClassTally, len(corpusClasses))
	for i, c := range corpusClasses {
		out[i].Class = c
		for j := range corpusClasses {
			switch {
			case i == j:
				out[i].TP += m[i][j]
			default:
				out[i].FN += m[i][j] // truth i predicted j
				out[i].FP += m[j][i] // truth j predicted i
			}
		}
	}
	return out
}

// ratio guards the precision/recall division: a zero denominator (a class
// absent from the corpus, or an empty corpus) yields ok=false rather than
// NaN, and renders as "n/a" / JSON null downstream.
func ratio(num, den int) (v float64, ok bool) {
	if den == 0 {
		return 0, false
	}
	return float64(num) / float64(den), true
}

// --- machine-readable form (CORPUS_<n>.json) ---

// CorpusRatio is a correct/total pair with its fraction.
type CorpusRatio struct {
	Correct  int      `json:"correct"`
	Total    int      `json:"total"`
	Fraction *float64 `json:"fraction"` // null when total is 0
}

func newCorpusRatio(correct, total int) CorpusRatio {
	cr := CorpusRatio{Correct: correct, Total: total}
	if v, ok := ratio(correct, total); ok {
		cr.Fraction = &v
	}
	return cr
}

// CorpusClassDoc is one class's row of the JSON report. Precision and
// recall are null when undefined (no predictions / no truth instances).
type CorpusClassDoc struct {
	Class     string   `json:"class"`
	TP        int      `json:"tp"`
	FP        int      `json:"fp"`
	FN        int      `json:"fn"`
	Precision *float64 `json:"precision"`
	Recall    *float64 `json:"recall"`
}

// CorpusMismatchDoc records one expected-vs-got divergence.
type CorpusMismatchDoc struct {
	Program string `json:"program"`
	Family  string `json:"family"`
	Global  string `json:"global"`
	Want    string `json:"want"`
	Got     string `json:"got"`
}

// CorpusThroughputDoc is the (machine-dependent, ungated) speed summary.
type CorpusThroughputDoc struct {
	Seconds        float64 `json:"seconds"`
	ProgramsPerSec float64 `json:"programsPerSec"`
	VerdictsPerSec float64 `json:"verdictsPerSec"`
}

// CorpusDoc is the CORPUS_<n>.json schema: everything the CI accuracy
// gate compares, plus ungated context (throughput, mismatch detail).
type CorpusDoc struct {
	Schema    string `json:"schema"` // corpusSchema
	Label     string `json:"label"`
	Seed      uint64 `json:"seed"`
	PerFamily int    `json:"perFamily"`

	Programs  int `json:"programs"`
	Curated   int `json:"curated"`
	Generated int `json:"generated"`
	Races     int `json:"races"`
	Labeled   int `json:"labeled"`

	// Accuracy is verdicts == ground truth; ExpectedMatch is verdicts ==
	// expected-Portend labels (the regression gate: 1.0 on a healthy
	// engine). KnownMisses = Labeled×(truth != expected).
	Accuracy      CorpusRatio `json:"accuracy"`
	ExpectedMatch CorpusRatio `json:"expectedMatch"`
	KnownMisses   int         `json:"knownMisses"`

	Classes []CorpusClassDoc `json:"classes"`
	// Confusion rows are ground truth, columns predictions, both in
	// specViol, outDiff, k-witness, singleOrd order.
	Confusion [4][4]int `json:"confusion"`

	Mismatches []CorpusMismatchDoc `json:"mismatches,omitempty"`

	// Throughput is context, not a gated quantity — it varies with the
	// host, unlike every accuracy field above, which is deterministic.
	Throughput CorpusThroughputDoc `json:"throughput"`
}

const corpusSchema = "portend-corpus-eval/1"

// Doc renders the result in the CORPUS_<n>.json schema.
func (r *CorpusResult) Doc(label string, perFamily int) *CorpusDoc {
	correct, total := r.Accuracy()
	eCorrect, eTotal := r.ExpectedMatch()
	doc := &CorpusDoc{
		Schema:    corpusSchema,
		Label:     label,
		Seed:      r.Seed,
		PerFamily: perFamily,
		Programs:  r.Programs,
		Curated:   r.Curated,
		Generated: r.Generated,
		Races:     r.Races(),
		Labeled:   r.Labeled(),

		Accuracy:      newCorpusRatio(correct, total),
		ExpectedMatch: newCorpusRatio(eCorrect, eTotal),
		Confusion:     r.Confusion(),
	}
	for _, o := range r.Outcomes {
		if o.Known && o.KnownMiss {
			doc.KnownMisses++
		}
	}
	for _, t := range r.Tallies() {
		cd := CorpusClassDoc{Class: t.Class.String(), TP: t.TP, FP: t.FP, FN: t.FN}
		if v, ok := ratio(t.TP, t.TP+t.FP); ok {
			cd.Precision = &v
		}
		if v, ok := ratio(t.TP, t.TP+t.FN); ok {
			cd.Recall = &v
		}
		doc.Classes = append(doc.Classes, cd)
	}
	for _, m := range r.Mismatches() {
		doc.Mismatches = append(doc.Mismatches, CorpusMismatchDoc{
			Program: m.Program, Family: string(m.Family), Global: m.Global,
			Want: m.Want.String(), Got: m.Got.String(),
		})
	}
	secs := r.Duration.Seconds()
	doc.Throughput.Seconds = secs
	if secs > 0 {
		doc.Throughput.ProgramsPerSec = float64(r.Programs) / secs
		doc.Throughput.VerdictsPerSec = float64(r.Races()) / secs
	}
	return doc
}

// WriteCorpusDoc writes the JSON file (indented, trailing newline).
func WriteCorpusDoc(path string, doc *CorpusDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCorpusDoc reads a CORPUS_<n>.json baseline.
func LoadCorpusDoc(path string) (*CorpusDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc CorpusDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if doc.Schema != corpusSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, corpusSchema)
	}
	return &doc, nil
}

// CompareCorpusDocs checks the current run against a baseline and returns
// one message per regression (empty means the gate passes). Gated:
// labeled coverage, overall accuracy, expected-label match, and per-class
// precision/recall. Deliberately not gated: throughput (host-dependent)
// and improvements in any direction.
func CompareCorpusDocs(cur, base *CorpusDoc) []string {
	var regressions []string
	if cur.Labeled < base.Labeled {
		regressions = append(regressions,
			fmt.Sprintf("labeled races shrank: %d < baseline %d", cur.Labeled, base.Labeled))
	}
	frac := func(r CorpusRatio) float64 {
		if r.Fraction == nil {
			return 0
		}
		return *r.Fraction
	}
	if base.Accuracy.Fraction != nil && frac(cur.Accuracy) < frac(base.Accuracy) {
		regressions = append(regressions,
			fmt.Sprintf("accuracy regressed: %d/%d < baseline %d/%d",
				cur.Accuracy.Correct, cur.Accuracy.Total, base.Accuracy.Correct, base.Accuracy.Total))
	}
	if base.ExpectedMatch.Fraction != nil && frac(cur.ExpectedMatch) < frac(base.ExpectedMatch) {
		regressions = append(regressions,
			fmt.Sprintf("expected-label match regressed: %d/%d < baseline %d/%d",
				cur.ExpectedMatch.Correct, cur.ExpectedMatch.Total, base.ExpectedMatch.Correct, base.ExpectedMatch.Total))
	}
	curByClass := map[string]CorpusClassDoc{}
	for _, c := range cur.Classes {
		curByClass[c.Class] = c
	}
	for _, b := range base.Classes {
		c, ok := curByClass[b.Class]
		if !ok {
			if b.Precision != nil || b.Recall != nil {
				regressions = append(regressions, fmt.Sprintf("class %s missing from current run", b.Class))
			}
			continue
		}
		if b.Precision != nil && (c.Precision == nil || *c.Precision < *b.Precision) {
			regressions = append(regressions,
				fmt.Sprintf("%s precision regressed: %s < baseline %.3f", b.Class, fmtNullable(c.Precision), *b.Precision))
		}
		if b.Recall != nil && (c.Recall == nil || *c.Recall < *b.Recall) {
			regressions = append(regressions,
				fmt.Sprintf("%s recall regressed: %s < baseline %.3f", b.Class, fmtNullable(c.Recall), *b.Recall))
		}
	}
	return regressions
}

func fmtNullable(v *float64) string {
	if v == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", *v)
}
