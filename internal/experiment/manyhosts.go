package experiment

// ManyHosts sweeps the host count far past the paper's Figure 6 range —
// h = 64 up to 4096 at fixed load — for the policies whose per-arrival
// host selection is now indexed (Least-Work-Left, Shortest-Queue,
// Central-Queue) plus Random as the selection-free baseline. It exists to
// exercise and measure the O(log h) fast path at cluster scale, in the
// regime scalable-dispatching work (Gardner et al.; the "Dispatching
// Odyssey" survey) studies.
//
// The driver is opt-in: registered with Drivers() so `sweep -exp
// many-hosts` runs it, but deliberately absent from IDs(), so `-exp all`
// — and therefore the recorded results/ corpus — does not include it.
// Job seeding follows Figure 6 (seed + host count), so every policy at a
// host count sees the same arrival stream and output stays bit-identical
// at any worker count.
func ManyHosts(cfg Config) ([]Table, error) {
	const load = 0.7
	hostCounts := []int{64, 128, 256, 512, 1024, 2048, 4096}
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	t := NewTable("many-hosts", "Slowdown vs number of hosts at load 0.7, indexed policies (simulation)",
		"hosts", "mean slowdown")
	specs := []policySpec{spec("lwl"), spec("shortest-queue"), spec("central-queue"), spec("random")}
	var cells []cell
	for _, h := range hostCounts {
		for _, spec := range specs {
			cells = append(cells, cell{stream{tr, load, h, true, cfg.Seed + uint64(h)}, spec, spec.name, float64(h)})
		}
	}
	addPoints(t, cells, cfg.runCells(cfg.Profile.MustSizeDist(), cells, false), meanSlowdown)
	return []Table{*t}, nil
}
