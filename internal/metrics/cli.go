package metrics

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// ListenHelp is the -listen flag's help text, shared by the binaries that
// serve the whole plane.
const ListenHelp = "serve live introspection on this address (/metrics, /debug/run, /debug/machine, /debug/flight, /debug/build, /debug/pprof/); cycle counts are unchanged"

// StartCLI brings up the observability surface a binary's flags asked for
// and returns one stop function that tears it all down, last started first.
// The plane is opt-in: with neither listen nor flightDir the returned plane
// is nil and the run carries no registry, no flight recorder and no retain
// sampler. With one, SIGQUIT dumps a flight bundle and keeps going, the
// first SIGINT dumps one on the way out (the forensic record of a run the
// user aborted, not just of runs that died on their own), and every bundle
// written is announced on stderr under prog's name. listen additionally
// starts the HTTP listener and prints its banner. pprofPath, independently,
// writes a CPU profile of everything up to stop — kept beside
// /debug/pprof/profile because sub-second runs cannot be profiled over HTTP.
func StartCLI(prog, listen, flightDir, pprofPath string) (*Plane, func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	var plane *Plane
	if listen != "" || flightDir != "" {
		plane = NewPlane(flightDir)
		plane.OnDump(func(path string) {
			fmt.Fprintf(os.Stderr, "%s: flight bundle written: %s\n", prog, path)
		})
		stops = append(stops, DumpOnQuit(plane), DumpOnInterrupt(plane))
	}
	if listen != "" {
		srv, err := Serve(listen, plane)
		if err != nil {
			stop()
			return nil, nil, err
		}
		stops = append(stops, func() { srv.Close() })
		fmt.Fprintf(os.Stderr, "# observability: http://%s (/metrics /debug/run /debug/machine /debug/flight /debug/build /debug/pprof/)\n", srv.Addr())
	}
	if pprofPath != "" {
		f, err := os.Create(pprofPath)
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			stop()
			return nil, nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	return plane, stop, nil
}
