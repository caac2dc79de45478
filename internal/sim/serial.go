package sim

// RunSerial executes the conductor's schedule on the calling goroutine:
// global is the global lane and lanes is one engine every region lane
// schedules on, cross-lane sends going straight into its ordered tie
// band under the keys the conductor's Merge hook would give them.
//
// The loop is the conductor's phase A / phase B rule with the windows
// stretched to their limit: global events at t run before region
// events at t, and region events run up to the next global event. The
// global lane is a pure source — region events never write global
// state — so the conductor's narrower windows, its GlobalHorizon
// certificates and its worker count all run every lane through this
// same event sequence; the conductor's differential harness
// (conductor_diff_test.go) checks that on random lane programs.
func RunSerial(global, lanes *Engine) {
	for {
		tg, ok := global.NextEventAt()
		if !ok {
			lanes.Run()
			return
		}
		if tl, ok := lanes.NextEventAt(); ok && tl < tg {
			lanes.RunUntil(tg - 1)
		}
		global.RunUntil(tg)
	}
}
