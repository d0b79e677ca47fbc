package eval

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads/corpus"
)

// TestCorpusExpectedMatch is the accuracy acceptance test: every race of
// every default-suite program is labeled, and every verdict matches its
// expected-Portend label (expected match 100%; accuracy differs from it
// only by the flagged known misses). It also round-trips the JSON doc
// and self-compares it, pinning the gate's fixed point.
func TestCorpusExpectedMatch(t *testing.T) {
	res := RunCorpusAt(corpus.DefaultSeed, corpus.DefaultPerFamily, 4)

	if res.Races() == 0 {
		t.Fatal("corpus produced no races")
	}
	for _, o := range res.Outcomes {
		if !o.Known {
			t.Errorf("%s: race on %q has no ground-truth label", o.Program, o.Global)
		}
	}
	if mism := res.Mismatches(); len(mism) > 0 {
		for _, m := range mism {
			t.Errorf("%s (%s): global %q classified %v, expected %v",
				m.Program, m.Family, m.Global, m.Got, m.Want)
		}
	}
	eCorrect, eTotal := res.ExpectedMatch()
	if eCorrect != eTotal {
		t.Errorf("expected match %d/%d, want 100%%", eCorrect, eTotal)
	}
	correct, total := res.Accuracy()
	misses := 0
	for _, o := range res.Outcomes {
		if o.Known && o.KnownMiss {
			misses++
		}
	}
	if correct != total-misses {
		t.Errorf("accuracy %d/%d with %d known misses; want correct = total - misses", correct, total, misses)
	}
	if misses == 0 {
		t.Error("corpus carries no known-miss program; the solver-blind idiom is missing")
	}

	doc := res.Doc("test", corpus.DefaultPerFamily)
	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := WriteCorpusDoc(path, doc); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := LoadCorpusDoc(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if regressions := CompareCorpusDocs(loaded, doc); len(regressions) > 0 {
		t.Errorf("self-comparison found regressions: %v", regressions)
	}
}

// TestCorpusTablesDegenerate pins the report rendering on corpora the
// divisions could choke on: an empty result, and one whose races all
// lack labels. Both must render (with "n/a" where ratios are undefined)
// rather than divide by zero.
func TestCorpusTablesDegenerate(t *testing.T) {
	cases := []struct {
		name string
		res  *CorpusResult
	}{
		{"empty", &CorpusResult{}},
		{"all-unknown", &CorpusResult{
			Programs: 2,
			Outcomes: []CorpusOutcome{
				{Program: "x", Global: "g", Known: false, Got: core.KWitnessHarmless},
				{Program: "y", Global: "h", Known: false, Got: core.OutputDiffers},
			},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out := CorpusTables(tc.res)
			if !strings.Contains(out, "n/a") {
				t.Errorf("degenerate corpus should render undefined ratios as n/a:\n%s", out)
			}
			if !strings.Contains(out, "Confusion matrix") {
				t.Errorf("report lost its confusion matrix:\n%s", out)
			}

			doc := tc.res.Doc("degenerate", 0)
			if doc.Accuracy.Fraction != nil || doc.ExpectedMatch.Fraction != nil {
				t.Error("accuracy fractions over zero labeled races must be null, not 0/0")
			}
			for _, c := range doc.Classes {
				if c.Precision != nil || c.Recall != nil {
					t.Errorf("class %s: precision/recall must be null when no races are labeled", c.Class)
				}
			}
			if got := tc.res.Labeled(); got != 0 {
				t.Errorf("Labeled() = %d, want 0", got)
			}
		})
	}
}

// docWith builds a minimal CorpusDoc for gate-comparison tests.
func docWith(labeled, correct int, classes []CorpusClassDoc) *CorpusDoc {
	d := &CorpusDoc{Schema: corpusSchema, Labeled: labeled, Classes: classes}
	d.Accuracy = newCorpusRatio(correct, labeled)
	d.ExpectedMatch = newCorpusRatio(labeled, labeled)
	return d
}

// TestCompareCorpusDocs exercises the accuracy gate's decision table:
// identical and improved runs pass; shrunken coverage, lower accuracy,
// per-class precision/recall drops, and vanished classes fail.
func TestCompareCorpusDocs(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	baseClasses := []CorpusClassDoc{
		{Class: "outDiff", TP: 8, Precision: f(1), Recall: f(0.9)},
	}
	base := docWith(100, 99, baseClasses)

	t.Run("identical passes", func(t *testing.T) {
		if regs := CompareCorpusDocs(docWith(100, 99, baseClasses), base); len(regs) != 0 {
			t.Errorf("identical docs flagged: %v", regs)
		}
	})
	t.Run("improvement passes", func(t *testing.T) {
		cur := docWith(120, 120, []CorpusClassDoc{
			{Class: "outDiff", TP: 10, Precision: f(1), Recall: f(1)},
		})
		if regs := CompareCorpusDocs(cur, base); len(regs) != 0 {
			t.Errorf("improved run flagged: %v", regs)
		}
	})
	t.Run("accuracy drop fails", func(t *testing.T) {
		if regs := CompareCorpusDocs(docWith(100, 95, baseClasses), base); len(regs) == 0 {
			t.Error("accuracy 95/100 vs baseline 99/100 not flagged")
		}
	})
	t.Run("labeled shrink fails", func(t *testing.T) {
		if regs := CompareCorpusDocs(docWith(90, 90, baseClasses), base); len(regs) == 0 {
			t.Error("labeled 90 vs baseline 100 not flagged")
		}
	})
	t.Run("recall drop fails", func(t *testing.T) {
		cur := docWith(100, 99, []CorpusClassDoc{
			{Class: "outDiff", TP: 7, Precision: f(1), Recall: f(0.7)},
		})
		if regs := CompareCorpusDocs(cur, base); len(regs) == 0 {
			t.Error("outDiff recall 0.7 vs baseline 0.9 not flagged")
		}
	})
	t.Run("ratio going undefined fails", func(t *testing.T) {
		cur := docWith(100, 99, []CorpusClassDoc{
			{Class: "outDiff", TP: 0, Precision: nil, Recall: nil},
		})
		if regs := CompareCorpusDocs(cur, base); len(regs) == 0 {
			t.Error("defined baseline ratios going n/a not flagged")
		}
	})
	t.Run("class vanishing fails", func(t *testing.T) {
		if regs := CompareCorpusDocs(docWith(100, 99, nil), base); len(regs) == 0 {
			t.Error("class present in baseline but missing from current run not flagged")
		}
	})
	t.Run("undefined baseline ratios do not gate", func(t *testing.T) {
		weakBase := docWith(0, 0, []CorpusClassDoc{{Class: "outDiff"}})
		if regs := CompareCorpusDocs(docWith(0, 0, []CorpusClassDoc{{Class: "outDiff"}}), weakBase); len(regs) != 0 {
			t.Errorf("all-null baseline should gate nothing: %v", regs)
		}
	})
}
