package metrics

import (
	"os"
	"os/signal"
	"syscall"
)

// DumpOnInterrupt installs a SIGINT observer that writes one flight bundle
// (reason "sigint") on the FIRST interrupt and then uninstalls itself. It
// observes, never consumes: lifecycle.WithSignals still sees the same
// signal and cancels the run, so the exit path (status 130, journal hints)
// is unchanged — the bundle is a forensic record of what the run was doing
// at the moment the user gave up on it. Later interrupts (the "kill it
// now" double-tap) dump nothing: a second bundle would race process death
// and slow down the exit the user is demanding.
func DumpOnInterrupt(p *Plane) (stop func()) {
	if p == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			_, _ = p.DumpFlight("sigint", nil, "")
		case <-done:
		}
		signal.Stop(ch)
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// DumpOnQuit installs a SIGQUIT handler that writes a flight bundle (reason
// "sigquit") and keeps the process running — a live forensic snapshot of a
// sweep you suspect is wedged, without killing it. The returned stop
// function uninstalls the handler. Go's default SIGQUIT behavior (goroutine
// dump + exit) is replaced while installed; send the signal twice only if
// you actually want the process gone (the second lands after a dump and
// still just dumps — use SIGINT/SIGTERM to stop the run).
func DumpOnQuit(p *Plane) (stop func()) {
	if p == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				_, _ = p.DumpFlight("sigquit", nil, "")
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
