package experiments

// Runner couples an experiment's registry name (the cmd/experiments -only
// key) with its entry point. Keeping the list here means the CLI subset
// flag and the -json summary agree on what exists. Run returns the
// experiment's typed result struct (for the machine-readable -json
// summary) alongside rendering text to cfg.W.
type Runner struct {
	Name string
	Run  func(Config) (any, error)
}

// Runners lists every experiment in paper order, followed by the
// extensions. Fig14 also renders Table 4, so a full run skips the
// standalone "table4" entry (it exists for -only).
func Runners() []Runner {
	return []Runner{
		{"fig2", func(cfg Config) (any, error) { return Fig2(cfg) }},
		{"fig3", func(cfg Config) (any, error) { return Fig3(cfg) }},
		{"fig4", func(cfg Config) (any, error) { return Fig4(cfg) }},
		{"fig5", func(cfg Config) (any, error) { return Fig5(cfg) }},
		{"fig6", func(cfg Config) (any, error) { return Fig6(cfg) }},
		{"fig10", func(cfg Config) (any, error) { return Fig10(cfg) }},
		{"fig11", func(cfg Config) (any, error) { return Fig11(cfg) }},
		{"fig12", func(cfg Config) (any, error) { return Fig12(cfg) }},
		{"fig13", func(cfg Config) (any, error) { return Fig13(cfg) }},
		{"fig14", func(cfg Config) (any, error) { return Fig14(cfg) }},
		{"fig15", func(cfg Config) (any, error) { return Fig15(cfg) }},
		{"fig16", func(cfg Config) (any, error) { return Fig16(cfg) }},
		{"fig17", func(cfg Config) (any, error) { return Fig17(cfg) }},
		{"table3", func(cfg Config) (any, error) { return Table3(cfg) }},
		{"table4", func(cfg Config) (any, error) { return Table4(cfg) }},
		{"a2", func(cfg Config) (any, error) { return AppendixA2(cfg) }},
		{"overhead", func(cfg Config) (any, error) { return Overhead(cfg) }},
		{"geo", func(cfg Config) (any, error) { return GeoExtension(cfg) }},
		{"online", func(cfg Config) (any, error) { return OnlineExtension(cfg) }},
		{"sensitivity", func(cfg Config) (any, error) { return Sensitivity(cfg) }},
		{"fault", func(cfg Config) (any, error) { return FaultSweep(cfg) }},
	}
}
