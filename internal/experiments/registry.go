package experiments

// Spec describes one runnable experiment for the command-line driver
// and the benchmark harness.
type Spec struct {
	// Name is the short handle used with `cmd/experiments -run`.
	Name string
	// ID is the paper artifact it reproduces.
	ID string
	// Heavy marks experiments that generate logs or run replays and
	// therefore take seconds to minutes.
	Heavy bool
	// Run executes the experiment and renders its table. The lab may
	// be shared across experiments within a process.
	Run func(l *Lab) Table
}

// All lists every experiment in paper order.
func All() []Spec {
	return []Spec{
		{Name: "table1", ID: "Table 1", Run: func(*Lab) Table { return Table1().Table() }},
		{Name: "fig2", ID: "Figure 2", Run: func(*Lab) Table { return Fig2().Table() }},
		{Name: "table2", ID: "Table 2", Run: func(*Lab) Table { return Table2().Table() }},
		{Name: "fig4a", ID: "Figure 4a", Heavy: true, Run: func(l *Lab) Table { return Fig4a(l).Table() }},
		{Name: "fig4b", ID: "Figure 4b", Heavy: true, Run: func(l *Lab) Table { return Fig4b(l).Table() }},
		{Name: "fig5", ID: "Figure 5", Heavy: true, Run: func(l *Lab) Table { return Fig5(l).Table() }},
		{Name: "table3", ID: "Table 3", Heavy: true, Run: func(l *Lab) Table { return Table3(l, 10).Table() }},
		{Name: "fig7", ID: "Figure 7", Heavy: true, Run: func(l *Lab) Table { return Fig7(l).Table() }},
		{Name: "fig8", ID: "Figure 8", Heavy: true, Run: func(l *Lab) Table { return Fig8(l).Table() }},
		{Name: "fig11", ID: "Figure 11", Heavy: true, Run: func(l *Lab) Table { return Fig11(l).Table() }},
		{Name: "fig12", ID: "Figure 12", Run: func(*Lab) Table { return Fig12().Table() }},
		{Name: "table4", ID: "Table 4", Heavy: true, Run: func(l *Lab) Table { return Table4(l).Table() }},
		{Name: "fig15a", ID: "Figure 15a", Heavy: true, Run: func(l *Lab) Table { return Fig15(l).TableTime() }},
		{Name: "fig15b", ID: "Figure 15b", Heavy: true, Run: func(l *Lab) Table { return Fig15(l).TableEnergy() }},
		{Name: "fig16", ID: "Figure 16", Heavy: true, Run: func(l *Lab) Table { return Fig16(l).Table() }},
		{Name: "table5", ID: "Table 5", Heavy: true, Run: func(l *Lab) Table { return Table5(l).Table() }},
		{Name: "table6", ID: "Table 6", Heavy: true, Run: func(l *Lab) Table { return Table6(l).Table() }},
		{Name: "fig17", ID: "Figure 17", Heavy: true, Run: func(l *Lab) Table { return Fig17(l).Table() }},
		{Name: "fig18", ID: "Figure 18", Heavy: true, Run: func(l *Lab) Table { return Fig18(l).Table() }},
		{Name: "fig19", ID: "Figure 19", Heavy: true, Run: func(l *Lab) Table { return Fig19(l).Table() }},
		{Name: "dailyupdates", ID: "Section 6.2.2", Heavy: true, Run: func(l *Lab) Table { return DailyUpdates(l).Table() }},
		{Name: "ablation-shared", ID: "Ablation", Heavy: true, Run: func(l *Lab) Table { return AblationSharedResults(l).Table() }},
		{Name: "ablation-decay", ID: "Ablation", Heavy: true, Run: func(l *Lab) Table { return AblationDecay(l).Table() }},
		{Name: "ablation-threetier", ID: "Ablation", Run: func(*Lab) Table { return AblationThreeTier().Table() }},
		{Name: "ablation-eviction", ID: "Ablation", Run: func(*Lab) Table { return AblationCoordinatedEviction().Table() }},
		{Name: "ext-autocomplete", ID: "Extension", Heavy: true, Run: func(l *Lab) Table { return ExtAutocomplete(l).Table() }},
	}
}

// Find returns the spec with the given name.
func Find(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
