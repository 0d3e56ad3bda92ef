package obs

import (
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// SnapshotVersion is the schema version stamped on every Snapshot.
// Bump it whenever the meaning or naming of exported fields changes
// incompatibly so downstream consumers can dispatch on it.
const SnapshotVersion = 1

// Field is one named counter inside a group snapshot.
type Field struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Group is one subsystem's counters at snapshot time.
type Group struct {
	Name   string  `json:"name"`
	Fields []Field `json:"fields"`
}

// Snapshot is a versioned point-in-time aggregation of every
// registered stats source plus the active tracer's histograms.
type Snapshot struct {
	Version int                     `json:"version"`
	Seq     uint64                  `json:"seq"`
	Groups  []Group                 `json:"groups"`
	Hists   map[string]HistSnapshot `json:"hists,omitempty"`
}

// Registry aggregates per-subsystem stats sources. Each source is a
// closure returning a fresh, race-safe copy of its stats struct;
// FieldsOf flattens the copy so obs needn't import subsystem types.
type Registry struct {
	mu      sync.Mutex
	seq     uint64
	sources []source
}

type source struct {
	name string
	get  func() any
}

// Register adds a named stats source. The getter must return a *copy*
// taken with whatever synchronization the subsystem requires (e.g.
// an atomic Snapshot()); the registry only reflects over the copy.
// Sources registered under an already-used name get a numeric suffix
// so multi-rank processes keep every rank's stats distinct.
func (r *Registry) Register(name string, get func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base, n := name, 0
	for r.hasLocked(name) {
		n++
		name = base + "#" + strconv.Itoa(n)
	}
	r.sources = append(r.sources, source{name: name, get: get})
}

func (r *Registry) hasLocked(name string) bool {
	for _, s := range r.sources {
		if s.name == name {
			return true
		}
	}
	return false
}

// Snapshot collects every source into one versioned snapshot. When a
// tracer is active its histograms are included.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	r.seq++
	snap := Snapshot{Version: SnapshotVersion, Seq: r.seq}
	srcs := make([]source, len(r.sources))
	copy(srcs, r.sources)
	r.mu.Unlock()

	for _, s := range srcs {
		snap.Groups = append(snap.Groups, Group{Name: s.name, Fields: FieldsOf(s.get())})
	}
	t := Active()
	if t == nil {
		// A flight recorder parked in a duty-cycle gap still has ring
		// health and histograms worth reporting.
		t = flightRec.Load()
	}
	if t != nil {
		// The tracer's own ring health rides along as the obs.* group
		// so dropped events are visible without parsing trace
		// metadata, and the histograms are included.
		snap.Groups = append(snap.Groups, Group{Name: "obs", Fields: t.statsFields()})
		snap.Hists = make(map[string]HistSnapshot, HistCount)
		for i := HistID(0); i < HistCount; i++ {
			snap.Hists[HistNames[i]] = t.Hist(i).Snapshot()
		}
	}
	sort.SliceStable(snap.Groups, func(i, j int) bool { return snap.Groups[i].Name < snap.Groups[j].Name })
	return snap
}

// statsFields flattens TracerStats (including the per-shard slice,
// which reflection-based FieldsOf cannot see) into registry fields.
func (t *Tracer) statsFields() []Field {
	st := t.StatsSnapshot()
	out := []Field{
		{Name: "Dropped", Value: st.Dropped},
		{Name: "Flight", Value: st.Flight},
		{Name: "WatchdogFires", Value: WatchdogFires()},
	}
	for i, sh := range st.Shards {
		p := "Shard" + strconv.Itoa(i) + "."
		out = append(out,
			Field{Name: p + "Events", Value: sh.Events},
			Field{Name: p + "Dropped", Value: sh.Dropped},
			Field{Name: p + "Wraps", Value: sh.Wraps},
		)
	}
	return out
}

// FieldsOf flattens the exported integer fields of a stats struct (or
// pointer to one) into name/value pairs, recursing into nested
// structs with a dotted prefix. Signed fields are exported with their
// two's-complement bit pattern; stats counters are never negative in
// practice.
func FieldsOf(v any) []Field {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return nil
	}
	var out []Field
	flatten(rv, "", &out)
	return out
}

func flatten(rv reflect.Value, prefix string, out *[]Field) {
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		fv := rv.Field(i)
		name := prefix + f.Name
		switch fv.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			*out = append(*out, Field{Name: name, Value: fv.Uint()})
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			*out = append(*out, Field{Name: name, Value: uint64(fv.Int())})
		case reflect.Struct:
			flatten(fv, name+".", out)
		}
	}
}
