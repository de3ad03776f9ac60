package experiments

import (
	"fmt"
	"slices"
	"strings"

	"s3sched/internal/benchfmt"
)

// The paper's qualitative claims about Figure 4 (§V-D..G), encoded as
// machine-checkable predicates. Reproduction targets the *shape* of
// the results — orderings, approximate ratios, crossovers — not the
// authors' absolute seconds. CheckPaperClaims is used both by the
// calibration harness (which searches parameters until all claims
// hold) and by the test suite (which pins the shipped calibration).

// claim is one predicate over the panel set.
type claim struct {
	id   string
	desc string
	ok   func(c *cells) bool
}

// cells reads the serial, uncached sim cell of a scheme from a panel's
// report, and notes every cell it cannot find: a claim that read one
// fails rather than holding over zeros.
type cells struct {
	reports map[string]*benchfmt.Report // by panel, "a".."f"
	missing []string
}

func (c *cells) cell(panel, scheme string) *benchfmt.Cell {
	if rep := c.reports[panel]; rep != nil {
		if cell := rep.Cell(benchfmt.CellKey{Scheduler: scheme, Engine: benchfmt.EngineSim}); cell != nil {
			return cell
		}
	}
	if name := fmt.Sprintf("fig4-%s/%s", panel, scheme); !slices.Contains(c.missing, name) {
		c.missing = append(c.missing, name)
	}
	return &benchfmt.Cell{}
}

func (c *cells) tet(panel, scheme string) float64 { return c.cell(panel, scheme).TET }

func (c *cells) art(panel, scheme string) float64 { return c.cell(panel, scheme).ART }

var mrsVariants = []string{"mrs1", "mrs2", "mrs3"}

func paperClaims() []claim {
	return []claim{
		// --- Figure 4(a): sparse, normal, 64 MB ---
		{"a1", "fig4a: S3 has the lowest TET of all schemes", func(c *cells) bool {
			for _, s := range []string{"fifo", "mrs1", "mrs2", "mrs3"} {
				if c.tet("a", s) <= c.tet("a", "s3") {
					return false
				}
			}
			return true
		}},
		{"a2", "fig4a: S3 has the lowest ART of all schemes", func(c *cells) bool {
			for _, s := range []string{"fifo", "mrs1", "mrs2", "mrs3"} {
				if c.art("a", s) <= c.art("a", "s3") {
					return false
				}
			}
			return true
		}},
		{"a3", "fig4a: FIFO TET ≈ 2.2x S3 (within [1.5,3.0])", func(c *cells) bool {
			r := c.tet("a", "fifo") / c.tet("a", "s3")
			return r >= 1.5 && r <= 3.0
		}},
		{"a4", "fig4a: FIFO ART ≈ 2.5x S3 (within [1.8,4.0])", func(c *cells) bool {
			r := c.art("a", "fifo") / c.art("a", "s3")
			return r >= 1.8 && r <= 4.0
		}},
		{"a5", "fig4a: MRShare TET within ~1.03-1.32x S3 (allow [1.005,1.7])", func(c *cells) bool {
			for _, s := range mrsVariants {
				r := c.tet("a", s) / c.tet("a", "s3")
				if r < 1.005 || r > 1.7 {
					return false
				}
			}
			return true
		}},
		{"a6", "fig4a: MRS1 has very high ART (worst among MRShare)", func(c *cells) bool {
			return c.art("a", "mrs1") > c.art("a", "mrs2") && c.art("a", "mrs1") > c.art("a", "mrs3")
		}},
		{"a7", "fig4a: MRS2 has the shortest TET among MRShare (ties allowed)", func(c *cells) bool {
			return c.tet("a", "mrs2") <= 1.01*c.tet("a", "mrs1") && c.tet("a", "mrs2") <= 1.01*c.tet("a", "mrs3")
		}},
		{"a8", "fig4a: MRS3 has the best ART among MRShare", func(c *cells) bool {
			return c.art("a", "mrs3") <= c.art("a", "mrs1") && c.art("a", "mrs3") <= c.art("a", "mrs2")
		}},

		// --- Figure 4(b): dense, normal, 64 MB ---
		{"b1", "fig4b: MRS1 beats S3 on TET and ART (dense favors batching)", func(c *cells) bool {
			return c.tet("b", "mrs1") <= 1.01*c.tet("b", "s3") && c.art("b", "mrs1") <= 1.01*c.art("b", "s3")
		}},
		{"b2", "fig4b: MRS3 is much worse than S3 (≥1.5x TET, ≥1.25x ART)", func(c *cells) bool {
			return c.tet("b", "mrs3") >= 1.5*c.tet("b", "s3") && c.art("b", "mrs3") >= 1.25*c.art("b", "s3")
		}},
		{"b3", "fig4b: FIFO absolute TET barely changes from sparse to dense (±5%)", func(c *cells) bool {
			r := c.tet("b", "fifo") / c.tet("a", "fifo")
			return r >= 0.95 && r <= 1.05
		}},
		{"b4", "fig4b: S3 beats MRS2 and MRS3 in both metrics", func(c *cells) bool {
			return c.tet("b", "s3") < c.tet("b", "mrs2") && c.tet("b", "s3") < c.tet("b", "mrs3") &&
				c.art("b", "s3") < c.art("b", "mrs2") && c.art("b", "s3") < c.art("b", "mrs3")
		}},

		// --- Figure 4(c): sparse, heavy, 64 MB ---
		{"c1", "fig4c: S3 TET grows ≈40% over the normal workload (within [1.2,1.8])", func(c *cells) bool {
			r := c.tet("c", "s3") / c.tet("a", "s3")
			return r >= 1.2 && r <= 1.8
		}},
		{"c2", "fig4c: MRS2 TET at or below S3 (paper: saves 15%)", func(c *cells) bool {
			return c.tet("c", "mrs2") <= 1.02*c.tet("c", "s3")
		}},
		{"c3", "fig4c: MRS3 TET grows ≈40% over its own normal-workload TET (≥1.2x)", func(c *cells) bool {
			return c.tet("c", "mrs3") >= 1.2*c.tet("a", "mrs3")
		}},
		// The paper says all MRShare variants "do not perform well in
		// ART" under the heavy workload. MRS1's batch-formation wait
		// reproduces cleanly; MRS2/MRS3's penalty conflicts with claim
		// c2 in any linear cost model (see EXPERIMENTS.md), so only
		// MRS1 is pinned here.
		{"c4", "fig4c: MRS1 has worse ART than S3 under the heavy workload", func(c *cells) bool {
			return c.art("c", "mrs1") > c.art("c", "s3")
		}},

		// --- Figure 4(d): sparse, normal, 128 MB ---
		{"d1", "fig4d: S3's TET edge over FIFO shrinks at 128 MB (smaller ratio than at 64 MB, still >1)", func(c *cells) bool {
			r128 := c.tet("d", "fifo") / c.tet("d", "s3")
			r64 := c.tet("a", "fifo") / c.tet("a", "s3")
			return r128 > 1.0 && r128 < r64
		}},
		{"d2", "fig4d: S3 still clearly wins ART vs FIFO (≥1.3x)", func(c *cells) bool {
			return c.art("d", "fifo") >= 1.3*c.art("d", "s3")
		}},
		{"d3", "fig4d: MRShare beats S3 in neither TET nor ART (1% tie tolerance)", func(c *cells) bool {
			for _, s := range mrsVariants {
				if c.tet("d", s) < 0.99*c.tet("d", "s3") || c.art("d", s) < 0.99*c.art("d", "s3") {
					return false
				}
			}
			return true
		}},
		{"d4", "fig4d: 128 MB blocks give the fastest single-scheme processing (S3 TET below 64 MB run)", func(c *cells) bool {
			return c.tet("d", "s3") < c.tet("a", "s3")
		}},

		// --- Figure 4(e): sparse, normal, 32 MB ---
		{"e1", "fig4e: all schemes slower than at 64 MB (more tasks, more overhead)", func(c *cells) bool {
			for _, s := range []string{"s3", "fifo", "mrs1", "mrs2", "mrs3"} {
				if c.tet("e", s) <= c.tet("a", s) {
					return false
				}
			}
			return true
		}},
		{"e2", "fig4e: MRShare TET 1.35-1.72x S3 (allow [1.005,2.0])", func(c *cells) bool {
			for _, s := range mrsVariants {
				r := c.tet("e", s) / c.tet("e", "s3")
				if r < 1.005 || r > 2.0 {
					return false
				}
			}
			return true
		}},
		{"e3", "fig4e: MRShare ART 2-3.86x S3 (allow [1.25,4.3])", func(c *cells) bool {
			for _, s := range mrsVariants {
				r := c.art("e", s) / c.art("e", "s3")
				if r < 1.25 || r > 4.3 {
					return false
				}
			}
			return true
		}},
		{"e4", "fig4e: S3 keeps its gain (best TET and ART)", func(c *cells) bool {
			for _, s := range []string{"fifo", "mrs1", "mrs2", "mrs3"} {
				if c.tet("e", s) <= c.tet("e", "s3") || c.art("e", s) <= c.art("e", "s3") {
					return false
				}
			}
			return true
		}},

		// --- Figure 4(f): selection workload ---
		{"f1", "fig4f: S3 outperforms MRShare in both TET and ART", func(c *cells) bool {
			for _, s := range mrsVariants {
				if c.tet("f", s) <= c.tet("f", "s3") || c.art("f", s) <= c.art("f", "s3") {
					return false
				}
			}
			return true
		}},
		{"f2", "fig4f: FIFO much worse than S3 (TET ≥1.7x, ART ≥2x)", func(c *cells) bool {
			return c.tet("f", "fifo") >= 1.7*c.tet("f", "s3") && c.art("f", "fifo") >= 2*c.art("f", "s3")
		}},
	}
}

// CheckPaperClaims evaluates every encoded claim against the Figure 4
// reports, keyed by panel ("a".."f"; cells keyed by PaperSchemes'
// labels), and returns the ids+descriptions of violated claims (empty
// when the reproduction matches the paper's shape). A claim that needs
// a panel or cell the reports lack is violated.
func CheckPaperClaims(reports map[string]*benchfmt.Report) []string {
	var violations []string
	for _, cl := range paperClaims() {
		c := &cells{reports: reports}
		if ok := cl.ok(c); len(c.missing) > 0 {
			violations = append(violations, fmt.Sprintf("%s: %s (no cell %s)", cl.id, cl.desc, strings.Join(c.missing, ", ")))
		} else if !ok {
			violations = append(violations, fmt.Sprintf("%s: %s", cl.id, cl.desc))
		}
	}
	return violations
}

// NumPaperClaims reports how many claims are encoded.
func NumPaperClaims() int { return len(paperClaims()) }
