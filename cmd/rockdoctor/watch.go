package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"rockcress/internal/metrics"
)

// watch polls a live rocksim/rockbench -listen endpoint's /debug/run view
// and renders sweep progress as a refreshing status line: cells done/planned,
// the in-flight cells with their ladder attempt, the simulated-MIPS meter,
// and the ETA. It runs until interrupted or until the sweep goes idle after
// having been seen running.
func watch(ctx context.Context, args []string) error {
	interval := time.Second
	if len(args) == 2 {
		d, err := time.ParseDuration(args[1])
		if err != nil || d <= 0 {
			return errUsage
		}
		interval = d
	} else if len(args) != 1 {
		return errUsage
	}
	base := strings.TrimSuffix(args[0], "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	url := base + "/debug/run"
	client := &http.Client{Timeout: 5 * time.Second}

	sawRunning := false
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		snap, err := fetchRun(ctx, client, url)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Println()
				return ctx.Err()
			}
			return err
		}
		line := renderRun(snap)
		// Overwrite the previous status line in place; terminals without
		// ANSI handling still get one readable line per poll.
		fmt.Printf("\r\033[2K%s", line)
		if snap.State == "running" {
			sawRunning = true
		} else if sawRunning {
			fmt.Println()
			fmt.Printf("sweep finished: %d done, %d failed\n",
				snap.Sweep.Done, snap.Sweep.Failed)
			return nil
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

func fetchRun(ctx context.Context, client *http.Client, url string) (*metrics.RunSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	var snap metrics.RunSnap
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return &snap, nil
}

// renderRun formats one /debug/run snapshot as a single status line.
func renderRun(s *metrics.RunSnap) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %d/%d cells", s.State, s.Sweep.Done+s.Sweep.Failed, s.Sweep.Planned)
	if s.Sweep.Failed > 0 {
		fmt.Fprintf(&b, " (%d failed)", s.Sweep.Failed)
	}
	if s.Sim.Mips > 0 {
		fmt.Fprintf(&b, "  %.1f Msim-cycles/s", s.Sim.Mips)
	}
	if s.Sweep.EtaS > 0 {
		fmt.Fprintf(&b, "  eta %s", (time.Duration(s.Sweep.EtaS * float64(time.Second))).Round(time.Second))
	}
	if s.Flight.Dumps > 0 {
		fmt.Fprintf(&b, "  flight-dumps %d", s.Flight.Dumps)
	}
	if n := len(s.Active); n > 0 {
		b.WriteString("  | ")
		const maxShown = 4
		for i, a := range s.Active {
			if i == maxShown {
				fmt.Fprintf(&b, " +%d more", n-maxShown)
				break
			}
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s/%s", a.Kernel, a.Config)
			if a.Attempt > 1 {
				fmt.Fprintf(&b, "#%d", a.Attempt)
			}
		}
	}
	return b.String()
}

// flight reads a dumped flight-recorder bundle and renders its forensics:
// why it was written, which run and ladder attempt it covers, the machine's
// final heatmap headline, and the tail of the rare-event note ring.
func flightCmd(_ context.Context, args []string) error {
	b, err := metrics.ReadBundle(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("flight bundle: %s\n", args[0])
	fmt.Printf("reason:  %s (written %s)\n", b.Reason, b.WrittenAt.Format(time.RFC3339))
	if b.Run != "" {
		fmt.Printf("run:     %s (attempt %d)\n", b.Run, b.Attempt)
	}
	if b.Error != "" {
		fmt.Printf("error:   %s\n", b.Error)
	}
	if m := b.Machine; m != nil {
		fmt.Printf("machine: cycle %d, %dx%d mesh, %d tiles, frames occupied %d, inet high-water %d\n",
			m.Cycle, m.MeshW, m.MeshH, len(m.Tiles), m.FramesOccupied, m.InetHighWater)
		if t := stalledTile(m); t != nil {
			total := t.Frame + t.Inet + t.Backpressure + t.Other
			fmt.Printf("most-stalled tile: %d (%s) — %d stall cycles (frame %d, inet %d, backpressure %d, other %d)\n",
				t.Tile, t.Role, total, t.Frame, t.Inet, t.Backpressure, t.Other)
		}
	}
	fmt.Printf("windows: %d retained telemetry windows\n", len(b.Windows))
	fmt.Printf("notes:   %d rare events", len(b.Notes))
	const tail = 15
	notes := b.Notes
	if len(notes) > tail {
		fmt.Printf(" (last %d shown)", tail)
		notes = notes[len(notes)-tail:]
	}
	fmt.Println()
	for _, n := range notes {
		line := fmt.Sprintf("  cycle %10d  %-18s %s", n.Cycle, n.Kind, n.Detail)
		if n.Run != "" {
			line += "  [" + n.Run
			if n.Attempt > 1 {
				line += fmt.Sprintf(" attempt %d", n.Attempt)
			}
			line += "]"
		}
		fmt.Println(line)
	}
	if b.TileState != "" {
		fmt.Printf("\ntile state at failure:\n%s\n", b.TileState)
	}
	return nil
}

// stalledTile returns the tile with the largest total stall count, or nil.
func stalledTile(m *metrics.MachineSnap) *metrics.TileSnap {
	var best *metrics.TileSnap
	var bestStall int64 = -1
	for i := range m.Tiles {
		t := &m.Tiles[i]
		s := t.Frame + t.Inet + t.Backpressure + t.Other
		if s > bestStall {
			best, bestStall = t, s
		}
	}
	return best
}
