package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"rockcress/internal/lifecycle"
	"rockcress/internal/metrics"
)

// Session is one command-line process from its parsed flags to its exit
// status. Everything it starts registers its own stop on the one exit path.
type Session struct {
	prog  Prog
	Opts  Options
	Args  []string        // what follows the flags
	Ctx   context.Context // canceled by the first SIGINT/SIGTERM
	Plane *metrics.Plane  // the flight recorder's plane; nil without -flight

	stderr  io.Writer
	closers []func(exitErr error) error // run last-first on exit
}

// UsageError is a command line the command cannot act on. The exit path
// prints it (when not empty) and the usage, and exits 2, as the flag
// package does for an undefined flag.
type UsageError string

func (e UsageError) Error() string { return string(e) }

// Main is every command's main: parse prog's rows of the option table,
// start the session, run the command, and exit through the session. It
// does not return.
func Main(prog Prog, run func(*Session) error) {
	s := &Session{prog: prog, stderr: os.Stderr}
	declare(flag.CommandLine, prog, &s.Opts)
	flag.Parse()
	s.Args = flag.Args()
	err := s.start()
	if err == nil {
		err = run(s)
	}
	os.Exit(s.exit(err))
}

// start installs the signal context and brings up what the flags ask for:
// the plane only under -flight (otherwise runs carry no flight recorder),
// with its flight dumps on SIGQUIT and the first SIGINT, and the -pprof CPU
// profile, the one host profile.
func (s *Session) start() error {
	ctx, stop := lifecycle.WithSignals(context.Background())
	s.Ctx = ctx
	s.OnExit(func(error) error { stop(); return nil })
	o := &s.Opts
	if o.Flight != "" {
		s.Plane = metrics.NewPlane(o.Flight)
		s.Plane.OnDump(func(path string) {
			fmt.Fprintf(s.stderr, "%s: flight bundle written: %s\n", s.prog, path)
		})
		stop := dumpOnSignals(s.Plane)
		s.OnExit(func(error) error { stop(); return nil })
	}
	if o.Pprof != "" {
		f, err := s.Create(o.Pprof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		s.OnExit(func(error) error { pprof.StopCPUProfile(); return nil })
	}
	return nil
}

// dumpOnSignals makes SIGQUIT write a flight bundle and keep the process
// running — the on-demand view of a sweep that looks wedged — and the
// first SIGINT write one on the way out, the record of a run the user gave
// up on. Both only observe: lifecycle.WithSignals still sees the SIGINT and
// cancels the run. After the first SIGINT the observer lets go, so a second
// one takes the OS default and kills the process without a racing dump.
func dumpOnSignals(p *metrics.Plane) (stop func()) {
	quit, intr := make(chan os.Signal, 1), make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	signal.Notify(intr, os.Interrupt)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-quit:
				_, _ = p.DumpFlight("sigquit", nil, "")
			case <-intr:
				signal.Stop(intr)
				_, _ = p.DumpFlight("sigint", nil, "")
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(quit)
		signal.Stop(intr)
		close(done)
		<-exited // a bundle being written is finished before the process exits
	}
}

// OnExit registers fn to run on the exit path, before everything
// registered earlier. fn sees the error the command ends with.
func (s *Session) OnExit(fn func(exitErr error) error) { s.closers = append(s.closers, fn) }

// exit is the one exit path. It reports err, then runs every closer, last
// registered first: what the command registered (rocksim's artifact sink,
// rockbench's journal), the CPU profile, the signal handlers. A closer that
// fails fails the command — a silently truncated artifact would poison
// whatever reads it later. It returns the exit status: 2 for a
// UsageError, 130 for an interrupted run, 1 for any other failure.
func (s *Session) exit(err error) int {
	status := 0
	report := func(err error) {
		fmt.Fprintf(s.stderr, "%s: %v\n", s.prog, err)
		status = 1
	}
	var usage UsageError
	isUsage := errors.As(err, &usage)
	if err != nil && (!isUsage || usage != "") {
		report(err)
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		if cerr := s.closers[i](err); cerr != nil {
			report(cerr)
		}
	}
	switch {
	case isUsage:
		flag.Usage()
		return 2
	case lifecycle.Interrupted(err):
		return lifecycle.ExitCodeInterrupted
	}
	return status
}

// Create opens an artifact file the exit path closes; "" opens nothing.
func (s *Session) Create(path string) (io.Writer, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s.OnExit(func(error) error { return f.Close() })
	return f, nil
}
