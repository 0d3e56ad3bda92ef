package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// motorEnvPrefix marks the product's environment knobs (nine at this
// commit). The parent removes them from its children's environment, so
// a knob left set in the caller's shell cannot change what is measured.
const motorEnvPrefix = "MOTOR_"

// cleanEnv is the parent's environment without the MOTOR_* variables.
func cleanEnv() []string {
	var out []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, motorEnvPrefix) {
			out = append(out, kv)
		}
	}
	return out
}

// requireCPUs refuses hosts where the two ranks cannot run at once:
// with fewer CPUs than ranks the numbers are the scheduler's.
func requireCPUs() error {
	if n := runtime.NumCPU(); n < 2 {
		return fmt.Errorf("the benchmark needs at least 2 CPUs for its 2 ranks, this host has %d", n)
	}
	return nil
}

// lastLevelCacheBytes reads the largest cache cpu0 reports in sysfs
// (0 when sysfs has none).
func lastLevelCacheBytes() int64 {
	var llc int64
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > llc {
			llc = n * mult
		}
	}
	return llc
}

// peakRSSMiB is this process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// rng is the workload input generator for a seed.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
