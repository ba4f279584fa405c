package metrics

import (
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary as the Go runtime recorded it at
// link time; report.json carries it. Reports stamped with different
// revisions are still comparable, but rockdoctor diff flags the comparison:
// a cycle delta across binaries may be a simulator change, not a
// configuration effect.
type BuildInfo struct {
	GoVersion string `json:"go_version,omitempty"`
	Path      string `json:"path,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Time      string `json:"vcs_time,omitempty"`
	Dirty     bool   `json:"vcs_dirty,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo *BuildInfo
)

// CurrentBuild returns the running binary's build identity, or nil when the
// runtime has none to offer (unlinked test binaries). The result is cached:
// debug.ReadBuildInfo re-parses the embedded blob on every call.
func CurrentBuild() *BuildInfo {
	buildOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		b := &BuildInfo{GoVersion: bi.GoVersion, Path: bi.Path}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				b.Revision = s.Value
			case "vcs.time":
				b.Time = s.Value
			case "vcs.modified":
				b.Dirty = s.Value == "true"
			}
		}
		buildInfo = b
	})
	return buildInfo
}

// SameBuild reports whether two stamps identify the same binary revision.
// A missing stamp on either side compares equal — absence is not evidence
// of difference.
func SameBuild(a, b *BuildInfo) bool {
	if a == nil || b == nil {
		return true
	}
	if a.Revision == "" || b.Revision == "" {
		return true
	}
	return a.Revision == b.Revision && a.Dirty == b.Dirty
}
