// Command perfbench is the repository benchmark. One invocation drives one
// named workload through the engine's public entry points (engine.New,
// (*Engine).Run), runs the correctness checks, prints
// every metric by name with its unit, and ends with one JSON result line:
//
//	bash perfbench/run.sh --workload tatp-central --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 makes
// the per-layer run: counters of an untraced run, the engine's virtual-time
// span rings from a traced run, and wall-clock replays of the workload's own
// generated transactions through each layer's public functions. Both span
// sets are written as one Chrome trace per workload under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// heldOutSeed is reserved for checking a performance claim on a seed that was
// not used while the change was written; tuning runs use other seeds.
const heldOutSeed = 7919

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks collects the named correctness checks of one run. A failed check
// fails the run and is printed by name.
type checks struct {
	failed []string
}

func (c *checks) expect(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	if ok {
		fmt.Printf("check %-34s ok    %s\n", name, detail)
		return
	}
	fmt.Printf("check %-34s FAIL  %s\n", name, detail)
	c.failed = append(c.failed, name)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
		out      = flag.String("out", ".bench_build/trace", "directory for the per-workload Chrome traces")
		describe = flag.Bool("describe", false, "print the per-layer metric table as JSON and exit")
	)
	flag.Parse()
	if *describe {
		return describeLayers()
	}
	s, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	// The host qualifies every number. With one CPU there is no parallelism
	// to measure, and the benchmark reports no speedup figure in any case.
	fmt.Printf("host num_cpu=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload %s seed=%d held_out_seed=%d seconds=%d trace=%d\n",
		s.name, *seed, heldOutSeed, *seconds, *trace)

	ck := &checks{}
	var res *result
	if *trace == 0 {
		res, err = endToEnd(s, *seed, *seconds, ck)
	} else {
		res, err = perLayer(s, *seed, *out, ck)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Failed += int64(len(ck.failed))
	res.Correct = len(ck.failed) == 0
	printMetrics(res.Metrics)
	if rss, ok := maxRSS(); ok {
		fmt.Printf("host max_rss_mib=%.1f\n", rss)
	}
	if !res.Correct {
		fmt.Printf("failed checks: %s\n", strings.Join(ck.failed, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-44s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// maxRSS returns the process's peak resident set in MiB, where the kernel
// reports it (Linux /proc).
func maxRSS() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, true
		}
	}
	return 0, false
}
