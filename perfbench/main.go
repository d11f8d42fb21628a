// Command perfbench is the repository benchmark. It builds nothing itself:
// run.sh builds catalystd and this program from the tree under test, then
// runs
//
//	perfbench --workload nav-hot|static-revalidate|revisit-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it runs catalystd as a child process, drives it over
// loopback from this process, checks every response, and prints the
// end-to-end metrics. With --trace 1 it adds the per-layer metrics: a
// shorter untraced run supplies the registry scrape and /proc figures, and
// a sequential replay through an in-process copy of the same stack, with
// spans around each layer's public entry points, supplies the rest.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Catalystd string // catalystd binary built from the tree under test
	Self      string // this binary, run again as the upstream origin
	BuildDir  string // binaries, corpora and results, inside the checkout
	Work      string // this run's corpus and logs
	Conns     int    // nproc: the connection cap and worker count
}

// result is what one run measured and checked.
type result struct {
	Correct    bool
	Attempted  int64
	Failed     int64
	Metrics    map[string]float64
	Diag       map[string]float64
	Info       map[string]string
	Violations []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]float64{}, Diag: map[string]float64{}, Info: map[string]string{}}
}

// maxViolations bounds how many failed checks a result lists.
const maxViolations = 20

func (r *result) violate(format string, args ...any) {
	r.Correct = false
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, *config, *result) error{
	"nav-hot":           runNavHot,
	"static-revalidate": runStatic,
	"revisit-churn":     runChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "upstream" {
		if err := upstreamMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "upstream:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{Conns: runtime.NumCPU()}
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "nav-hot | static-revalidate | revisit-churn")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced per-layer run")
	fs.StringVar(&cfg.Catalystd, "catalystd", ".bench_build/bin/catalystd", "catalystd binary under test")
	fs.StringVar(&cfg.BuildDir, "build-dir", ".bench_build", "directory for binaries, corpora and results")
	fs.StringVar(&cfg.Self, "self", "", "perfbench binary to run as the upstream (default: this one)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = trace == 1
	fn, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.Workload)
		return 2
	}
	var err error
	if cfg.Self == "" {
		if cfg.Self, err = os.Executable(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	// Every exit path kills the children: the deferred killAll on return,
	// the signal handler on SIGINT/SIGTERM, and Pdeathsig if this process
	// dies any other way.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-sig:
			killAll()
			os.Exit(3)
		case <-ctx.Done():
		}
	}()
	defer killAll()

	res := newResult()
	if err := prepare(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.Work)
	err = fn(ctx, cfg, res)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := report(cfg, res, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// prepare makes the run's work directory and records what was measured:
// the catalystd binary's hash and the source revision.
func prepare(cfg *config, res *result) error {
	b, err := os.ReadFile(cfg.Catalystd)
	if err != nil {
		return fmt.Errorf("catalystd binary: %w", err)
	}
	sum := sha256.Sum256(b)
	res.Info["catalystd_sha256"] = hex.EncodeToString(sum[:])
	res.Info["revision"] = gitRevision()
	res.Info["workload"] = cfg.Workload
	res.Info["seed"] = fmt.Sprint(cfg.Seed)
	if err := os.MkdirAll(filepath.Join(cfg.BuildDir, "work"), 0o755); err != nil {
		return err
	}
	cfg.Work, err = os.MkdirTemp(filepath.Join(cfg.BuildDir, "work"), cfg.Workload+"-")
	return err
}

// gitRevision names the source revision, or "none" outside a git checkout.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report stores the full result (with diagnostics and hashes) under the
// build directory, prints the diagnostics, and prints the result line.
func report(cfg *config, res *result, stdout io.Writer) error {
	set := endToEnd
	if cfg.Trace {
		set = perLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range set {
		v, ok := res.Metrics[m.Name]
		if !ok {
			v, ok = res.Diag[m.Name]
		}
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", cfg.Workload, m.Name)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	full := map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": res.Metrics, "diagnostics": res.Diag, "info": res.Info, "violations": res.Violations,
	}
	dir := filepath.Join(cfg.BuildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%s.json", cfg.Workload, cfg.Seed, cfg.Trace, time.Now().UTC().Format("20060102T150405.000"))
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		return err
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "info %s=%s\n", k, res.Info[k])
	}
	diag, _ := json.Marshal(res.Diag)
	fmt.Fprintf(stdout, "diagnostics %s\n", diag)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
