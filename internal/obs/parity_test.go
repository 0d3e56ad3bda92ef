package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestMetricsTextJSONParity is the histogram-quantile parity check:
// the text renderer, the JSON renderer, and the OpenMetrics renderer
// must all report the identical count/quantile values for the same
// snapshot — text is derived by formatting, JSON by struct encoding,
// OpenMetrics by a third path, so drift between them is possible and
// has to be pinned by test.
func TestMetricsTextJSONParity(t *testing.T) {
	if Active() != nil {
		t.Fatal("tracer already active at test start")
	}
	tr := Start(Options{Shards: 1})
	if tr == nil {
		t.Fatal("Start refused")
	}
	defer Stop(tr)

	// A spread of samples per histogram so quantiles are distinct.
	for h := HistID(0); h < HistCount; h++ {
		for i := 1; i <= 1000; i++ {
			tr.Record(h, int64(i)*int64(h+1)*1000)
		}
	}

	reg := new(Registry)
	reg.Register("engine", func() any { return struct{ Ops uint64 }{3} })
	snap := reg.Snapshot()
	if len(snap.Hists) != int(HistCount) {
		t.Fatalf("snapshot hists = %d, want %d", len(snap.Hists), HistCount)
	}

	var textBuf, jsonBuf, omBuf bytes.Buffer
	if err := WriteMetricsText(&textBuf, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsJSON(&jsonBuf, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpenMetrics(&omBuf, snap); err != nil {
		t.Fatal(err)
	}

	var decoded Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}

	// Round trip: re-rendering the decoded JSON as text must reproduce
	// the original text byte for byte (counters and all quantiles).
	var rt bytes.Buffer
	if err := WriteMetricsText(&rt, decoded); err != nil {
		t.Fatal(err)
	}
	if rt.String() != textBuf.String() {
		t.Fatalf("text/JSON round trip drifted:\n-- original --\n%s\n-- round trip --\n%s",
			textBuf.String(), rt.String())
	}

	// Every histogram line in the text output must agree with the
	// JSON snapshot field by field.
	for name, h := range decoded.Hists {
		want := fmt.Sprintf("hist.%s count=%d mean=%.0f p50=%d p95=%d p99=%d max=%d\n",
			name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		if !strings.Contains(textBuf.String(), want) {
			t.Fatalf("text output lacks %q:\n%s", want, textBuf.String())
		}
		// And the OpenMetrics spelling must carry the same quantiles.
		base := "motor_hist_" + metricName(name)
		for _, line := range []string{
			fmt.Sprintf("%s_count %d\n", base, h.Count),
			fmt.Sprintf("%s{quantile=\"0.5\"} %d\n", base, h.P50),
			fmt.Sprintf("%s{quantile=\"0.95\"} %d\n", base, h.P95),
			fmt.Sprintf("%s{quantile=\"0.99\"} %d\n", base, h.P99),
			fmt.Sprintf("%s_max %d\n", base, h.Max),
		} {
			if !strings.Contains(omBuf.String(), line) {
				t.Fatalf("OpenMetrics output lacks %q:\n%s", line, omBuf.String())
			}
		}
	}

	// The obs.* ring-health group rides along whenever a tracer is on.
	var haveObs bool
	for _, g := range decoded.Groups {
		if g.Name == "obs" {
			haveObs = true
			var fields []string
			for _, f := range g.Fields {
				fields = append(fields, f.Name)
			}
			joined := strings.Join(fields, ",")
			for _, want := range []string{"Dropped", "Flight", "WatchdogFires", "Shard0.Events", "Shard0.Wraps"} {
				if !strings.Contains(joined, want) {
					t.Fatalf("obs group lacks %s field: %v", want, fields)
				}
			}
		}
	}
	if !haveObs {
		t.Fatal("snapshot lacks the obs ring-health group")
	}
}
