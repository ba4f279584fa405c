package main

import (
	"context"
	"fmt"
	"time"

	"rockcress/internal/lifecycle"
	"rockcress/internal/metrics"
)

// watch shows a sweep's progress from its rockbench -journal file: cells
// done, cells failed, and the key of the last cell to finish. With no
// interval it prints that once; with one it prints it again whenever it
// changes, until interrupted. It reads the journal as -resume does
// (lifecycle.LoadJournal), so the torn last line of an append in progress
// is not a cell yet.
func watch(ctx context.Context, args []string) error {
	var interval time.Duration
	switch len(args) {
	case 1:
	case 2:
		d, err := time.ParseDuration(args[1])
		if err != nil || d <= 0 {
			return errUsage
		}
		interval = d
	default:
		return errUsage
	}
	last := ""
	for {
		line, err := journalStatus(args[0])
		if err != nil {
			return err
		}
		if line != last {
			fmt.Println(line)
			last = line
		}
		if interval == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
}

// journalStatus is one status line for the journal at path.
func journalStatus(path string) (string, error) {
	_, entries, err := lifecycle.LoadJournal(path)
	if err != nil {
		return "", err
	}
	failed := 0
	for _, e := range entries {
		if e.Err != "" {
			failed++
		}
	}
	line := fmt.Sprintf("%d cells done, %d failed", len(entries)-failed, failed)
	if n := len(entries); n > 0 {
		line += ", last " + entries[n-1].Key
	}
	return line, nil
}

// flight reads a dumped flight-recorder bundle and renders its forensics:
// why it was written, which run and ladder attempt it covers, the sweep's
// progress when the bundle has a sweep section, the machine's heatmap
// headline, and the tail of the rare-event note ring.
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
	if sw := b.Sweep; sw != nil {
		fmt.Printf("sweep:   %d/%d cells done, %d failed, %d active; %d simulated cycles in %.1fs\n",
			sw.Done, sw.Planned, sw.Failed, len(sw.Active), sw.SimCycles, sw.SimWallS)
		for _, a := range sw.Active {
			fmt.Printf("  active %s/%s attempt %d for %.1fs\n", a.Kernel, a.Config, a.Attempt, a.ForS)
		}
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
