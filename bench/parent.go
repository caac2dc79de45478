package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workRoot holds every file the harness writes — run directories, the
// ethserve store, rung fixtures — inside the checkout it runs from. It
// is removed when the harness exits.
const workRoot = ".bench_work"

// workDir makes a fresh directory under workRoot.
func workDir(prefix string) (string, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workRoot, prefix)
}

// minSetups is how many set-ups setup_s is taken from: a run or set
// short of reps tops up with children that only set up.
const minSetups = 20

// maxStolenShare is the hypervisor interference a rep may see and still
// count as undisturbed. On the authoring box (a KVM guest on a shared
// host) quiet reps read 0.0-0.2% and the reps reading 0.6-0.8% were the
// slow ones of their run; in the episodes that stretched a 4 s rep to
// 33 s the host was withholding most of the VM's CPU time.
const maxStolenShare = 0.005

// hostTicks reads the VM-wide busy and stolen CPU ticks from /proc/stat.
// Where there is no such file both read 0, and every rep then counts as
// undisturbed.
func hostTicks() (busy, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			stolen = n
		default:
			busy += n
		}
	}
	return busy, stolen
}

// spawnRep runs one rep in a fresh child process and returns what it
// reported, plus the figures only the parent can take: set-up time (child
// start -> ready line), the child's peak RSS, and the share of the VM's
// CPU time the hypervisor withheld while the child ran.
func spawnRep(ctx context.Context, name string, seed uint64, mode string) (repResult, error) {
	var res repResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	dir, err := workDir(name + "-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	cmd := exec.CommandContext(ctx, self,
		"-child", mode, "-workload", name, "-seed", fmt.Sprint(seed), "-dir", dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	busy0, stolen0 := hostTicks()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	rd := bufio.NewReader(stdout)
	for {
		line, err := rd.ReadString('\n')
		if line = strings.TrimSpace(line); line == readyLine {
			res.SetupS = time.Since(start).Seconds()
		} else if line != "" {
			last = line
		}
		if err != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("%s rep (%s) child: %w", name, mode, err)
	}
	if res.SetupS == 0 {
		return res, fmt.Errorf("%s rep (%s) child never reported ready", name, mode)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	busy1, stolen1 := hostTicks()
	if ticks := busy1 + stolen1 - busy0 - stolen0; ticks > 0 {
		res.StolenShare = (stolen1 - stolen0) / ticks
	}
	if mode == modeSetup {
		return res, nil
	}
	// The parent's own fields are not part of the JSON and stay as set.
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s rep (%s) child result: %w", name, mode, err)
	}
	return res, nil
}

// summary is one workload's end-to-end result over a set of plain reps.
type summary struct {
	workload string
	reps     int
	// disturbed counts the reps left out of the time metrics because
	// the hypervisor withheld more than maxStolenShare of the CPU.
	disturbed int
	// values holds the reported figure of every end-to-end metric (the
	// repQuantile of its samples); samples the per-rep values.
	values  map[string]float64
	samples map[string][]float64
	// attempted / failed count operations over all reps, output checks
	// included.
	attempted, failed int
	errs              []string
	digest            string
	// counts are the exact-count layer metrics (identical in every rep).
	counts map[string]float64
}

func (s *summary) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// summarize reduces a workload's plain reps to its end-to-end metrics
// and runs the output checks: every rep shares one outcomes digest and
// one set of exact counts. setups may carry extra set-up-only samples.
func summarize(name string, reps []repResult, extraSetups []float64) summary {
	s := summary{
		workload: name, reps: len(reps),
		values: map[string]float64{}, samples: map[string][]float64{},
		counts: map[string]float64{},
	}
	add := func(k string, v float64) { s.samples[k] = append(s.samples[k], v) }
	// A rep the hypervisor disturbed says nothing about the code, so the
	// time metrics use the undisturbed reps — when the run has any.
	var clean []repResult
	for _, r := range reps {
		s.attempted += r.Ops
		s.failed += r.Failed
		s.errs = append(s.errs, r.Errors...)
		add("setup_s", r.SetupS)
		add("peak_rss_mb", r.PeakRSSMB)
		if r.StolenShare <= maxStolenShare {
			clean = append(clean, r)
		}
	}
	s.disturbed = len(reps) - len(clean)
	if len(clean) == 0 {
		clean = reps
	}
	for _, r := range clean {
		add("campaign_wall_s", r.WallS)
		add("events_per_s", r.Layer["sim.events"]/r.WallS)
		add("cpu_s", r.CPUS)
		// Percentiles over the rep's campaigns: 25 on serve-mix, one on
		// the single-campaign workloads (both then equal the wall).
		add("sealed_p50_s", percentile(r.SealedS, 0.5))
		add("sealed_p90_s", percentile(r.SealedS, 0.9))
	}
	s.samples["setup_s"] = append(s.samples["setup_s"], extraSetups...)
	for _, m := range endToEnd {
		s.values[m.Name] = percentile(s.samples[m.Name], repQuantile(m))
	}

	// Output checks. A speed-up must leave every simulated statistic
	// identical, so a rep that disagrees with its siblings is a failure.
	if len(reps) > 0 {
		s.digest = reps[0].Digest
		for _, k := range exactCounts {
			s.counts[k] = reps[0].Layer[k]
		}
	}
	for i, r := range reps {
		s.attempted++
		if r.Digest != s.digest || r.Digest == "" {
			s.failed++
			s.errs = append(s.errs, fmt.Sprintf("rep %d: outcomes digest %.12s differs from rep 0's %.12s", i, r.Digest, s.digest))
			continue
		}
		for _, k := range exactCounts {
			if r.Layer[k] != s.counts[k] {
				s.failed++
				s.errs = append(s.errs, fmt.Sprintf("rep %d: %s = %v, rep 0 had %v", i, k, r.Layer[k], s.counts[k]))
				break
			}
		}
	}
	return s
}

// print writes the workload's end-to-end table: the reported value with
// its unit, then the quartiles of the per-rep samples behind it, so the
// spread is a number in the output.
func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %d rep(s), %d disturbed (hypervisor stole > %.1f%% of the CPU), outcomes.json sha256 %.16s\n",
		s.workload, s.reps, s.disturbed, 100*maxStolenShare, s.digest)
	fmt.Fprintf(w, "  %-18s %14s %-5s %12s %12s %12s %4s\n", "metric", "value", "unit", "q1", "median", "q3", "n")
	for _, m := range endToEnd {
		v := s.samples[m.Name]
		fmt.Fprintf(w, "  %-18s %14.4f %-5s %12.4f %12.4f %12.4f %4d\n",
			m.Name, s.values[m.Name], m.Unit, percentile(v, 0.25), median(v), percentile(v, 0.75), len(v))
	}
	fmt.Fprintf(w, "  %-18s %14.4f %-5s (%d failed of %d operations)\n", "failed_share", s.failedShare(), "share", s.failed, s.attempted)
	for _, e := range s.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// traced is one workload's per-layer result: the layer numbers of the
// spans rep, the event-kind rows of the tracer rep, and the two
// overhead ratios against an untraced rep.
type traced struct {
	workload string
	layer    map[string]float64
	spans    map[string]spanTotal
	wall     float64
	failed   int
	ops      int
	errs     []string
}

// traceWorkload runs the traced set of one workload: n untraced reps
// (the base of the overhead ratios) alternating with n reps that have
// the harness's spans on, then one rep with the engine tracer on. The
// per-layer numbers come from the last spans rep; the ratios compare
// medians, so they steady as n grows.
func traceWorkload(ctx context.Context, name string, seed uint64, n int) (traced, error) {
	t := traced{workload: name, layer: map[string]float64{}}
	var modes []string
	for i := 0; i < n; i++ {
		modes = append(modes, modePlain, modeSpans)
	}
	modes = append(modes, modeTracer)
	reps := map[string][]repResult{}
	for _, mode := range modes {
		fmt.Fprintf(os.Stderr, "bench: %s traced set: %s rep\n", name, mode)
		r, err := spawnRep(ctx, name, seed, mode)
		if err != nil {
			return t, err
		}
		t.ops += r.Ops
		t.failed += r.Failed
		t.errs = append(t.errs, r.Errors...)
		reps[mode] = append(reps[mode], r)
	}
	walls := func(mode string) []float64 {
		var w []float64
		for _, r := range reps[mode] {
			w = append(w, r.WallS)
		}
		return w
	}
	spans, tracer := reps[modeSpans][n-1], reps[modeTracer][0]
	for k, v := range spans.Layer {
		t.layer[k] = v
	}
	for k, v := range tracer.Layer {
		if strings.HasPrefix(k, "sim.kind.") {
			t.layer[k] = v
		}
	}
	base := median(walls(modePlain))
	t.layer["bench.span_overhead_ratio"] = median(walls(modeSpans)) / base
	t.layer["obs.trace_overhead_ratio"] = tracer.WallS / base
	t.spans = totalsByName(spans.Spans)
	t.wall = spans.WallS
	// Recording must not change what is simulated.
	want := reps[modePlain][0].Digest
	for _, mode := range []string{modePlain, modeSpans, modeTracer} {
		for _, r := range reps[mode] {
			t.ops++
			if r.Digest != want {
				t.failed++
				t.errs = append(t.errs, fmt.Sprintf("%s rep digest %.12s differs from the first untraced rep's %.12s", mode, r.Digest, want))
			}
		}
	}
	return t, nil
}

// report prints the traced set's result: the span table, the per-layer
// rows and any failed check. It refuses names the catalogue lacks.
func (t *traced) report(w io.Writer, title string) error {
	if err := checkNames(t.layer); err != nil {
		return err
	}
	t.printSpans(w)
	printLayer(w, title, t.layer)
	for _, e := range t.errs {
		fmt.Fprintln(w, "  FAILED:", e)
	}
	return nil
}

// printSpans writes the span table of the spans rep: per span name the
// count, summed duration, summed self time and share of the wall.
func (t *traced) printSpans(w io.Writer) {
	fmt.Fprintf(w, "== %s — spans of one rep (campaign wall %.4f s)\n", t.workload, t.wall)
	fmt.Fprintf(w, "  %-28s %6s %12s %12s %8s\n", "span", "n", "total_s", "self_s", "of wall")
	names := make([]string, 0, len(t.spans))
	for n := range t.spans {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.spans[names[i]].Total > t.spans[names[j]].Total })
	for _, n := range names {
		s := t.spans[n]
		fmt.Fprintf(w, "  %-22s %6d %12.6f %12.6f %7.2f%%\n", n, s.Count, s.Total, s.Self, 100*s.Total/t.wall)
	}
}

// printLayer writes per-layer rows, catalogue order, skipping names the
// given map does not hold.
func printLayer(w io.Writer, title string, values map[string]float64) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, m := range perLayer {
		if v, ok := values[m.Name]; ok {
			fmt.Fprintf(w, "  %-44s %18.4f %s\n", m.Name, v, m.Unit)
		}
	}
}

// checkNames reports layer values whose name the catalogue lacks — a
// harness bug, caught before anything is printed as a result.
func checkNames(values map[string]float64) error {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	var unknown []string
	for k := range values {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return errors.New("bench: metrics missing from the catalogue: " + strings.Join(unknown, ", "))
	}
	return nil
}
