package experiments

import (
	"fmt"

	"pocketcloudlets/internal/nvm"
)

// Table1 reproduces the paper's Table 1: NVM technology scaling trends.
type Table1Result struct {
	Trends []nvm.TrendPoint
}

// Table1 returns the scaling-trend projection.
func Table1() Table1Result { return Table1Result{Trends: nvm.Trends()} }

// Table renders the result.
func (r Table1Result) Table() Table {
	t := Table{
		ID:      "Table 1",
		Title:   "Technology scaling trends",
		Columns: []string{"year", "technology", "tech (nm)", "scaling factor", "chip stack", "cell layers", "bits per cell"},
	}
	for _, p := range r.Trends {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Year),
			p.Technology.String(),
			fmt.Sprintf("%d", p.TechNM),
			fmt.Sprintf("%g", p.ScalingFactor),
			fmt.Sprintf("%d", p.ChipStack),
			fmt.Sprintf("%d", p.CellLayers),
			fmt.Sprintf("%g", p.BitsPerCell),
		})
	}
	return t
}

// Fig2Result carries the Figure 2 capacity evolution curves.
type Fig2Result struct {
	Scenarios []nvm.Scenario
	// HighEnd[i] and LowEnd[i] are the curves for scenario i.
	HighEnd [][]nvm.CapacityPoint
	LowEnd  [][]nvm.CapacityPoint
}

// Fig2 projects smartphone NVM capacity for every scenario.
func Fig2() Fig2Result {
	r := Fig2Result{Scenarios: nvm.Scenarios()}
	for _, s := range r.Scenarios {
		r.HighEnd = append(r.HighEnd, nvm.Project(nvm.HighEnd2010, s))
		r.LowEnd = append(r.LowEnd, nvm.Project(nvm.LowEnd2010, s))
	}
	return r
}

func formatBytes(b int64) string {
	switch {
	case b >= nvm.TB:
		return fmt.Sprintf("%.1f TB", float64(b)/float64(nvm.TB))
	case b >= nvm.GB:
		return fmt.Sprintf("%.1f GB", float64(b)/float64(nvm.GB))
	case b >= nvm.MB:
		return fmt.Sprintf("%.1f MB", float64(b)/float64(nvm.MB))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// Table renders the high-end curves (the paper's plotted device class).
func (r Fig2Result) Table() Table {
	t := Table{
		ID:      "Figure 2",
		Title:   "Projected NVM capacity of a high-end smartphone (32 GB in 2010)",
		Columns: []string{"scenario"},
		Notes: []string{
			"paper: high-end phones may reach ~1 TB as early as 2018",
			fmt.Sprintf("low-end (512 MB in 2010) reaches %s in 2018 and %s in 2026 under all techniques",
				formatBytes(mustCap(nvm.LowEnd2010, 2018)), formatBytes(mustCap(nvm.LowEnd2010, 2026))),
		},
	}
	if len(r.HighEnd) == 0 {
		return t
	}
	for _, p := range r.HighEnd[0] {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", p.Year))
	}
	for i, s := range r.Scenarios {
		row := []string{s.Name}
		for _, p := range r.HighEnd[i] {
			row = append(row, formatBytes(p.Bytes))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// mustCap is the all-techniques capacity in a year, 0 outside the trend.
func mustCap(base int64, year int) int64 {
	c, _ := nvm.CapacityIn(base, nvm.Scenarios()[3], year)
	return c
}

// Table2Result carries the Table 2 item-count rows.
type Table2Result struct {
	Budget int64
	Rows   []nvm.ItemCountRow
}

// Table2 computes the items storable in the 25.6 GB cloudlet budget.
func Table2() Table2Result {
	return Table2Result{Budget: nvm.Table2Budget, Rows: nvm.Table2()}
}

// Table renders the result.
func (r Table2Result) Table() Table {
	t := Table{
		ID:      "Table 2",
		Title:   fmt.Sprintf("Data items storable in %s (10%% of projected low-end NVM)", formatBytes(r.Budget)),
		Columns: []string{"pocket cloudlet", "single item", "number of items"},
		Notes:   []string{"paper: ~270,000 result pages / ~5,500,000 5 KB items / ~17,500 web sites"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Cloudlet.Name,
			fmt.Sprintf("%s (%s)", formatBytes(row.Cloudlet.ItemSize), row.Cloudlet.ItemDesc),
			fmt.Sprintf("%d", row.Count),
		})
	}
	return t
}
