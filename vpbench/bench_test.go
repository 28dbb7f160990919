package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ipc"
)

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEveryMetric runs every workload for a few cycles per VP, untraced
// and traced, and checks that the final line carries exactly the metrics
// BENCHMARK.json names, with their units, and that each is also printed.
func TestSmokeEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				want := map[string]string{}
				if trace == "0" {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0", "--cycles", "3",
					"--trace", trace, "--spans", filepath.Join(t.TempDir(), "spans.csv.gz")}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("metric %s: unit %q, want %q", name, m.Unit, unit)
					}
					if !strings.Contains(out.String(), "metric "+name+" ") {
						t.Errorf("metric %s not printed", name)
					}
				}
			})
		}
	}
}

// corruptOnce returns a handler wrapper that flips one byte of the first D2H
// result the service returns, however many VPs' handlers it wraps.
func corruptOnce() func(ipc.Handler) ipc.Handler {
	var done atomic.Bool
	return func(h ipc.Handler) ipc.Handler {
		return func(vp int, req any) any {
			resp := h(vp, req)
			if d, ok := resp.(ipc.D2HResp); ok && len(d.Data) > 0 && done.CompareAndSwap(false, true) {
				d.Data = append([]byte(nil), d.Data...)
				d.Data[len(d.Data)/2] ^= 0x40
				return d
			}
			return resp
		}
	}
}

// TestCorruptedD2HIsCaught proves the output check runs: one corrupted byte
// must fail the run.
func TestCorruptedD2HIsCaught(t *testing.T) {
	for _, name := range []string{"fleet-coalesce", "remote-small"} {
		t.Run(name, func(t *testing.T) {
			wl, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			cfg := config{workload: wl, seed: 3, cyclesPerVP: 3, wrapHandler: corruptOnce()}
			res, err := bench(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != 1 {
				t.Fatalf("corrupted D2H not caught: correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
			}
			if !strings.Contains(out.String(), "differ from the Native semantics") {
				t.Errorf("no check failure printed:\n%s", out.String())
			}
		})
	}
}

func TestAtZeroSteal(t *testing.T) {
	steal := []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	y := make([]float64, len(steal))
	for i, s := range steal {
		y[i] = 2000 * (1 - 1.7*s)
	}
	y[3] = 100 // one round wrecked by something else
	if got := atZeroSteal(steal, y); got < 1990 || got > 2010 {
		t.Errorf("fit through a line with an outlier: got %v, want 2000", got)
	}
	flat := []float64{0.1, 0.1, 0.1}
	if got := atZeroSteal(flat, []float64{5, 7, 6}); got != 6 {
		t.Errorf("no spread in steal: got %v, want the median 6", got)
	}
	if got := atZeroSteal([]float64{0, 0.1, 0.2}, []float64{1, 2, 3}); got != 2 {
		t.Errorf("rising with steal: got %v, want the median 2", got)
	}
}
