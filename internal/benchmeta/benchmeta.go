// Package benchmeta collects the machine/build provenance block the
// benchmark report (bench/, results.json) embeds, so numbers from
// different machines or revisions are never compared as if they were one
// population.
package benchmeta

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Meta is the shared provenance schema. All fields are best-effort:
// a missing git binary or a non-repo working directory leaves GitRev
// empty rather than failing the benchmark.
type Meta struct {
	Machine    string `json:"machine"`           // hostname
	OS         string `json:"os"`                // runtime.GOOS
	Arch       string `json:"arch"`              // runtime.GOARCH
	Cores      int    `json:"cores"`             // runtime.NumCPU
	GOMAXPROCS int    `json:"gomaxprocs"`        // effective at collection time
	GoVersion  string `json:"go_version"`        // runtime.Version
	GitRev     string `json:"git_rev,omitempty"` // HEAD short hash, "-dirty" suffixed
}

// Collect gathers the provenance block for the current process.
func Collect() Meta {
	m := Meta{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if host, err := os.Hostname(); err == nil {
		m.Machine = host
	}
	m.GitRev = gitRev()
	return m
}

// gitRev returns the short HEAD hash with a "-dirty" suffix when the
// tree has uncommitted changes; empty when git or the repo is absent.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return ""
	}
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(status))) > 0 {
		rev += "-dirty"
	}
	return rev
}
