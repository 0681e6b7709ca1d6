package main

import (
	"os"
	"runtime"
	"strings"

	"candle/internal/bench"
)

// host fingerprints the machine a result came from, so numbers from
// different hosts are never compared silently.
type host struct {
	bench.Environment
	NumCPU int      `json:"nproc"`
	ISA    []string `json:"isa"`
}

// isaFlags are the /proc/cpuinfo flags the tensor kernels care about.
var isaFlags = []string{"avx2", "avx512f", "fma"}

func fingerprint() host {
	return host{
		Environment: bench.New("perfbench", "").Environment,
		NumCPU:      runtime.NumCPU(),
		ISA:         cpuFlags(),
	}
}

// cpuFlags returns which of isaFlags the first CPU in /proc/cpuinfo
// advertises (empty where the file is unavailable).
func cpuFlags() []string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return []string{}
	}
	have := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(rest) {
				have[f] = true
			}
			break
		}
	}
	out := []string{}
	for _, f := range isaFlags {
		if have[f] {
			out = append(out, f)
		}
	}
	return out
}
