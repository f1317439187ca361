// Package report renders benchmark outputs as fixed-width text: metric
// grids shaped like the paper's Tables 3-7, bar histograms shaped like
// Figures 1-3 and 5, correlation matrices (Figure 4), and per-outcome
// failure panels (Figures 6-12).
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
)

// PRF is one precision/recall/F1 cell.
type PRF struct {
	Prec, Rec, F1 float64
}

// FromBinary converts a confusion matrix to its PRF cell.
func FromBinary(b metrics.Binary) PRF {
	return PRF{Prec: b.Precision(), Rec: b.Recall(), F1: b.F1()}
}

// MetricTable renders a model × dataset grid of PRF cells in the paper's
// table layout.
func MetricTable(w io.Writer, title string, datasets, models []string, cells map[string]map[string]PRF) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "Model")
	for _, ds := range datasets {
		fmt.Fprintf(w, " | %-22s", ds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "")
	for range datasets {
		fmt.Fprintf(w, " | %6s %6s %6s ", "Prec.", "Rec.", "F1")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 14+25*len(datasets)))
	for _, m := range models {
		fmt.Fprintf(w, "%-12s", m)
		for _, ds := range datasets {
			c := cells[m][ds]
			fmt.Fprintf(w, " | %6.2f %6.2f %6.2f ", c.Prec, c.Rec, c.F1)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// TaskGrid renders any task's model × dataset accuracy table generically —
// the renderer behind the registry-wide grid, task-agnostic by
// construction: each cell is the task's generic summary. PRF columns print
// as dashes for tasks without a detection. A model's row ends with the
// failed-example count of every cell that has one, since a partial-failure
// cell is scored over its graded results only.
func TaskGrid(w io.Writer, title string, datasets, models []string, cells map[string]map[string]core.Summary) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "Model")
	for _, ds := range datasets {
		fmt.Fprintf(w, " | %-29s", ds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "")
	for range datasets {
		fmt.Fprintf(w, " | %6s %6s %6s %6s ", "Acc.", "Prec.", "Rec.", "F1")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 14+32*len(datasets)))
	for _, m := range models {
		fmt.Fprintf(w, "%-12s", m)
		var failed []string
		for _, ds := range datasets {
			c := cells[m][ds]
			if c.HasPRF {
				fmt.Fprintf(w, " | %6.2f %6.2f %6.2f %6.2f ", c.Accuracy, c.Prec, c.Rec, c.F1)
			} else {
				fmt.Fprintf(w, " | %6.2f %6s %6s %6s ", c.Accuracy, "-", "-", "-")
			}
			if c.Failed > 0 {
				failed = append(failed, fmt.Sprintf("%s %d", ds, c.Failed))
			}
		}
		if len(failed) > 0 {
			fmt.Fprintf(w, "  failed: %s", strings.Join(failed, ", "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// LocRow is one MAE/HR cell for Table 5.
type LocRow struct {
	MAE, HR float64
}

// LocationTable renders the miss_token_loc table.
func LocationTable(w io.Writer, title string, datasets, models []string, cells map[string]map[string]LocRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "Model")
	for _, ds := range datasets {
		fmt.Fprintf(w, " | %-15s", ds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "")
	for range datasets {
		fmt.Fprintf(w, " | %7s %7s", "MAE", "HR")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 14+18*len(datasets)))
	for _, m := range models {
		fmt.Fprintf(w, "%-12s", m)
		for _, ds := range datasets {
			c := cells[m][ds]
			fmt.Fprintf(w, " | %7.2f %7.2f", c.MAE, c.HR)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Histogram renders labeled counts as horizontal bars.
func Histogram(w io.Writer, title string, labels []string, counts []int) {
	fmt.Fprintf(w, "%s\n", title)
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	const width = 44
	for i, label := range labels {
		bar := counts[i] * width / max
		fmt.Fprintf(w, "  %-10s %4d  %s\n", label, counts[i], strings.Repeat("#", bar))
	}
	fmt.Fprintln(w)
}

// RateBars renders per-class rates (Figures 7 and 9) as percentage bars.
func RateBars(w io.Writer, title string, classes []string, rates map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, c := range classes {
		r := rates[c]
		bar := int(r * 40)
		fmt.Fprintf(w, "  %-20s %5.2f  %s\n", c, r, strings.Repeat("#", bar))
	}
	fmt.Fprintln(w)
}

// CorrMatrix renders a Pearson matrix with property names.
func CorrMatrix(w io.Writer, title string, names []string, m [][]float64) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-16s", "")
	for _, n := range names {
		fmt.Fprintf(w, "%8s", abbrev(n, 7))
	}
	fmt.Fprintln(w)
	for i, n := range names {
		fmt.Fprintf(w, "%-16s", n)
		for j := range names {
			fmt.Fprintf(w, "%8.2f", m[i][j])
		}
		fmt.Fprintln(w)
		_ = i
	}
	fmt.Fprintln(w)
}

func abbrev(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// OutcomePanel renders a Figure-6-style panel: per outcome, the average and
// median of a property plus the population size.
func OutcomePanel(w io.Writer, title string, bd *metrics.Breakdown) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-4s %10s %10s %8s\n", "", "avg", "median", "n")
	for _, o := range metrics.Outcomes {
		fmt.Fprintf(w, "  %-4s %10.2f %10.2f %8d\n", o, bd.Avg(o), bd.Median(o), bd.Count(o))
	}
	fmt.Fprintln(w)
}

// Section prints a prominent section header.
func Section(w io.Writer, name string) {
	fmt.Fprintln(w, strings.Repeat("=", 72))
	fmt.Fprintln(w, name)
	fmt.Fprintln(w, strings.Repeat("=", 72))
}
