package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"rockcress/internal/trace"
)

// Phase is a maximal run of consecutive telemetry windows sharing one
// bottleneck label.
type Phase struct {
	Start   int64 `json:"start"`
	End     int64 `json:"end"`
	Label   Label `json:"label"`
	Windows int   `json:"windows"`
}

// ReadWindowsFile parses a JSONL telemetry file and reports whether it is
// partial: either a window carries the sampler's truncation marker (the run
// was interrupted but flushed cleanly) or the final line is torn (the
// process died mid-write). A torn line anywhere else is still corruption
// and errors; a torn tail costs at most one window.
func ReadWindowsFile(path string) (ws []trace.Window, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("analyze: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line, tornAt := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if tornAt > 0 {
			return nil, false, fmt.Errorf("analyze: %s:%d: corrupt window (not the final line)", path, tornAt)
		}
		var w trace.Window
		if err := json.Unmarshal([]byte(text), &w); err != nil {
			tornAt = line
			continue
		}
		if w.Truncated {
			truncated = true
		}
		ws = append(ws, w)
	}
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("analyze: %s: %w", path, err)
	}
	if tornAt > 0 {
		truncated = true
	}
	return ws, truncated, nil
}

// Timeline classifies every window and merges consecutive equal labels
// into phases — the time-resolved view of where a run's bottleneck moved.
// A multi-attempt fault run restarts its windows at cycle 0 per attempt;
// the phase list simply restarts with it.
func Timeline(windows []trace.Window) []Phase {
	var out []Phase
	for i := range windows {
		w := &windows[i]
		label := ClassifyWindow(w).Label
		if n := len(out); n > 0 && out[n-1].Label == label && out[n-1].End == w.Start {
			out[n-1].End = w.End
			out[n-1].Windows++
			continue
		}
		out = append(out, Phase{Start: w.Start, End: w.End, Label: label, Windows: 1})
	}
	return out
}

// RenderTimeline prints the phase list with per-phase spans and shares.
func RenderTimeline(w io.Writer, phases []Phase) {
	if len(phases) == 0 {
		fmt.Fprintln(w, "no telemetry windows")
		return
	}
	var total int64
	for _, p := range phases {
		total += p.End - p.Start
	}
	fmt.Fprintf(w, "%-10s %-10s %-26s %8s %6s\n", "start", "end", "phase", "cycles", "share")
	for _, p := range phases {
		span := p.End - p.Start
		fmt.Fprintf(w, "%-10d %-10d %-26s %8d %5.1f%%\n",
			p.Start, p.End, string(p.Label), span, 100*float64(span)/float64(total))
	}
}

// Explain prints a human-readable digest of one report: identity, verdict
// with evidence, the per-role CPI stacks, and the shared-stage pressures.
func Explain(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%s: %d cycles, %d instructions\n", r.Name(), r.Cycles, r.Instrs)
	fmt.Fprintf(w, "bottleneck: %s\n", r.Bottleneck.Label)
	for _, ev := range r.Bottleneck.Evidence {
		fmt.Fprintf(w, "  - %s\n", ev)
	}
	fmt.Fprintf(w, "\nper-role CPI stacks (fraction of the role's active cycles):\n")
	fmt.Fprintf(w, "  %-10s %5s %7s %7s %7s %7s %7s\n",
		"role", "cores", "issued", "frame", "inet", "backpr", "other")
	for _, name := range r.roleNamesSorted() {
		rc := r.Roles[name]
		total := rc.Issued + rc.Frame + rc.Inet + rc.Backpressure + rc.Other
		if total == 0 {
			continue
		}
		f := func(v int64) string { return fmt.Sprintf("%.2f", float64(v)/float64(total)) }
		pacing := ""
		if name == r.PacingRole() {
			pacing = "*"
		}
		fmt.Fprintf(w, "  %-10s %5d %7s %7s %7s %7s %7s %s\n",
			name, r.RolePop[name], f(rc.Issued), f(rc.Frame), f(rc.Inet),
			f(rc.Backpressure), f(rc.Other), pacing)
	}
	fmt.Fprintf(w, "  (* = pacing role for the verdict)\n")
	fmt.Fprintf(w, "\nshared stages:\n")
	fmt.Fprintf(w, "  llc:  %.2f miss rate (%d accesses, %d misses, %d wide reqs)\n",
		r.LLC.MissRate, r.LLC.Accesses, r.LLC.Misses, r.LLC.WideReqs)
	fmt.Fprintf(w, "  dram: busy %.0f%% of cycles (%d line reads, %d writes)\n",
		100*r.Dram.BusyFrac, r.Dram.Reads, r.Dram.Writes)
	fmt.Fprintf(w, "  noc:  %.2f hops/cycle (req %d + resp %d hops over %d cycles)\n",
		r.Noc.HopsPerCycle, r.Noc.HopsReq, r.Noc.HopsResp, r.Cycles)
	if r.Frames.Consumed > 0 {
		fmt.Fprintf(w, "  frames: %d consumed", r.Frames.Consumed)
		if r.Frames.Replays > 0 || r.Frames.Poisons > 0 {
			fmt.Fprintf(w, " (%d poisoned, %d replayed)", r.Frames.Poisons, r.Frames.Replays)
		}
		fmt.Fprintln(w)
	}
	if r.Engine.FastForwards > 0 {
		fmt.Fprintf(w, "  engine: %d fast-forwards skipped %d cycles\n",
			r.Engine.FastForwards, r.Engine.SkippedCycles)
	}
}
