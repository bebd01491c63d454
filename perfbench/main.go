// Command perfbench is the repository's end-to-end benchmark: it drives
// the Part III aggregation paths (netsim and loopback TCP) and the
// multi-tenant serve path through their public APIs, checks every
// output, and prints one JSON result line.
//
//	perfbench --workload agg-mix --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no instrumentation beyond the program's own. With --trace 1 it
// carries the per-layer metrics: units alternate between traced and
// untraced, traced units record spans around every call into a layer
// and a CPU profile, and the untraced ones give the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the run parameters shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// minUnits is the least number of timed units a run measures, even
	// past its time budget, so medians always have samples.
	minUnits int
	// spanOut, when set, receives the first traced unit's spans.
	spanOut string
	// wireDelay stalls every traced wire call (tests only).
	wireDelay time.Duration
}

// errIncorrect marks a wrong output: the run reports correct=false.
var errIncorrect = errors.New("incorrect output")

func incorrect(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed body in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	spans := flag.String("spans", "", "file to write the first traced unit's spans to (trace 1)")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3, minUnits: 5, spanOut: *spans}
	res, _, err := run(w, w.size, opt)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
	}
	printDetails(os.Stderr, res)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printDetails writes the metrics as a table, for people reading a run.
func printDetails(f *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "  %-34s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// since is a wall-clock interval in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
