package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// childOut is what a child process prints on stdout for its parent.
type childOut struct {
	ReadyUnixNs int64              `json:"ready_unix_ns"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Op          summary            `json:"op"`
	Blocks      []block            `json:"blocks,omitempty"`
	PeakRSSMiB  float64            `json:"peak_rss_mib"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Info        map[string]any     `json:"info,omitempty"`
}

// childMain runs one phase of one workload in this process: "measure"
// is the untraced timed run, "trace" the traced run.
func childMain(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	sz := sizes{seed: o.seed, smoke: o.smoke}
	out := &childOut{Info: map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0)}}
	if w.info != nil {
		w.info(out.Info)
	}
	if o.child == "trace" {
		if err := tracedRun(w, sz, o.seconds, out); err != nil {
			return err
		}
	} else {
		res, err := runWorkload(w, sz, runOpts{seconds: o.seconds})
		if err != nil {
			return err
		}
		out.take(res, w)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(data))
	return err
}

func (out *childOut) take(res *runResult, w *workload) {
	out.ReadyUnixNs = res.ReadyUnixNs
	out.Attempted, out.Failed = res.Attempted, res.Failed
	out.Errors = append(out.Errors, res.Errors...)
	out.Op, out.Blocks = summarize(res.OpUs, w.tailPct), res.Blocks
	out.PeakRSSMiB = res.PeakRSSMiB
}
