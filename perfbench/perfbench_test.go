package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"cachecatalyst/catalyst"
)

// bins are built once from the tree under test.
var bins struct{ catalystd, perfbench, fake string }

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bins.catalystd = filepath.Join(dir, "catalystd")
	bins.perfbench = filepath.Join(dir, "perfbench")
	bins.fake = filepath.Join(dir, "fakecatalystd")
	for _, b := range [][2]string{
		{bins.catalystd, "cachecatalyst/cmd/catalystd"},
		{bins.perfbench, "."},
		{bins.fake, "./testdata/fakecatalystd"},
	} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", b[1], err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
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

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declaredUnits is BENCHMARK.json's metric set for one trace mode.
func declaredUnits(bj *benchmarkJSON, trace bool) map[string]string {
	out := map[string]string{}
	if trace {
		for _, m := range bj.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range bj.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func TestMetricSetMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	names := map[string]bool{}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q needs a one-line why", w.Name)
		}
		names[w.Name] = true
	}
	for w := range workloads {
		if !names[w] {
			t.Errorf("workload %q is missing from BENCHMARK.json", w)
		}
	}
	for _, trace := range []bool{false, true} {
		set := endToEnd
		if trace {
			set = perLayer
		}
		want := map[string]string{}
		for _, m := range set {
			want[m.Name] = m.Unit
			if !metricName.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("metric %q (unit %q) breaks the naming rule", m.Name, m.Unit)
			}
		}
		if got := declaredUnits(bj, trace); !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: BENCHMARK.json declares %v, the command reports %v", trace, got, want)
		}
	}
	perLayerNames := map[string]bool{}
	for _, m := range perLayer {
		perLayerNames[m.Name] = true
	}
	for _, d := range diagnostics {
		if !perLayerNames[d] {
			t.Errorf("diagnostic %s is not a per-layer metric", d)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, err := writeStaticSite(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := writeStaticSite(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := writeStaticSite(t.TempDir(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != a2.Hash || a.Hash == b.Hash {
		t.Errorf("site hashes: seed 5 %s and %s, seed 6 %s", a.Hash, a2.Hash, b.Hash)
	}
	// Byte-identical on disk, not only by hash.
	err = filepath.WalkDir(a.Dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(a.Dir, p)
		x, _ := os.ReadFile(p)
		y, err := os.ReadFile(filepath.Join(a2.Dir, rel))
		if err != nil || !bytes.Equal(x, y) {
			t.Errorf("%s differs between two writes of seed 5", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if navHash(navSchedule(a, 5)) != navHash(navSchedule(a2, 5)) || navHash(navSchedule(a, 5)) == navHash(navSchedule(b, 6)) {
		t.Error("nav-hot schedule does not follow the seed")
	}
	if staticHash(staticSchedule(a, 5)) != staticHash(staticSchedule(a2, 5)) || staticHash(staticSchedule(a, 5)) == staticHash(staticSchedule(b, 6)) {
		t.Error("static-revalidate schedule does not follow the seed")
	}
	if newChurnCorpus(5).hash != newChurnCorpus(5).hash || newChurnCorpus(5).hash == newChurnCorpus(6).hash {
		t.Error("revisit-churn corpus does not follow the seed")
	}
	if churnHash(churnSchedule(5)) != churnHash(churnSchedule(5)) || churnHash(churnSchedule(5)) == churnHash(churnSchedule(6)) {
		t.Error("revisit-churn schedule does not follow the seed")
	}
}

// startedSince returns the children started after the first n.
func startedSince(n int) []*exec.Cmd {
	children.Lock()
	defer children.Unlock()
	return append([]*exec.Cmd(nil), children.started[n:]...)
}

func startedCount() int {
	children.Lock()
	defer children.Unlock()
	return len(children.started)
}

func assertNoSurvivors(t *testing.T, cmds []*exec.Cmd) {
	t.Helper()
	if len(cmds) == 0 {
		t.Fatal("no children were started")
	}
	for _, c := range cmds {
		if processAlive(c.Process.Pid) {
			t.Errorf("child %d (%s) survived the run", c.Process.Pid, filepath.Base(c.Path))
		}
	}
}

// TestRunPrintsDeclaredMetrics runs every workload briefly in both trace
// modes and checks the result line against BENCHMARK.json, the stored
// diagnostics, the connection cap, catalystd's argv, and that no child
// outlives a successful run.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bj := loadBenchmarkJSON(t)
	const seed = "987654321"
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				n := startedCount()
				buildDir := t.TempDir()
				var out bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", seed, "--seconds", "2", "--trace", trace,
					"--catalystd", bins.catalystd, "--self", bins.perfbench, "--build-dir", buildDir}, &out)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatal(err)
				}
				if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
					t.Fatalf("result line has keys %v", last)
				}
				var metrics map[string]metricValue
				if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for k, v := range metrics {
					got[k] = v.Unit
				}
				if want := declaredUnits(bj, trace == "1"); !reflect.DeepEqual(got, want) {
					t.Errorf("printed metrics %v, declared %v", got, want)
				}
				if !strings.Contains(out.String(), "info schedule_sha256=") {
					t.Error("schedule hash not printed")
				}
				files, _ := filepath.Glob(filepath.Join(buildDir, "results", "*.json"))
				if len(files) != 1 {
					t.Fatalf("want one stored result, have %v", files)
				}
				var stored struct{ Diagnostics map[string]float64 }
				b, _ := os.ReadFile(files[0])
				if err := json.Unmarshal(b, &stored); err != nil {
					t.Fatal(err)
				}
				for _, d := range diagnostics {
					if _, ok := stored.Diagnostics[d]; !ok {
						t.Errorf("diagnostic %s not stored", d)
					}
				}
				if dials := stored.Diagnostics["conn.dials"]; dials < 1 || dials > float64(runtime.NumCPU()) {
					t.Errorf("conn.dials %v, want 1..%d", dials, runtime.NumCPU())
				}
				cmds := startedSince(n)
				for _, c := range cmds {
					if c.Path == bins.catalystd && strings.Contains(strings.Join(c.Args, " "), seed) {
						t.Errorf("catalystd argv %v carries the seed", c.Args)
					}
				}
				assertNoSurvivors(t, cmds)
			})
		}
	}
}

// TestFailedCheckKillsChildren runs against a daemon that serves the wrong
// entities: the run must exit non-zero, report any result as incorrect,
// and leave no child.
func TestFailedCheckKillsChildren(t *testing.T) {
	for _, w := range []string{"nav-hot", "revisit-churn"} {
		t.Run(w, func(t *testing.T) {
			n := startedCount()
			var out bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--catalystd", bins.fake,
				"--self", bins.perfbench, "--build-dir", t.TempDir()}, &out)
			if code == 0 || strings.Contains(out.String(), `"correct":true`) {
				t.Errorf("exit %d, output %q: want a failure", code, out.String())
			}
			assertNoSurvivors(t, startedSince(n))
		})
	}
}

// TestSignalKillsChildren sends SIGTERM to a running benchmark process.
func TestSignalKillsChildren(t *testing.T) {
	cmd := exec.Command(bins.perfbench, "--workload", "revisit-churn", "--seed", "4", "--seconds", "60",
		"--catalystd", bins.catalystd, "--build-dir", t.TempDir())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Three set-ups of upstream + catalystd: the sixth child is the last.
	var pids []int
	sc := bufio.NewScanner(stderr)
	for len(pids) < 2*setupReps && sc.Scan() {
		var pid int
		var name string
		if _, err := fmt.Sscanf(sc.Text(), "perfbench: child pid %d: %s", &pid, &name); err == nil {
			pids = append(pids, pid)
		}
	}
	go io.Copy(io.Discard, stderr)
	if len(pids) < 2*setupReps {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("saw %d children start", len(pids))
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Error("benchmark exited 0 after SIGTERM")
	}
	for _, pid := range pids {
		for i := 0; i < 100 && processAlive(pid); i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if processAlive(pid) {
			t.Errorf("child %d survived SIGTERM", pid)
		}
	}
}

// response is what the equivalence test compares.
type response struct {
	status        int
	etag, etagCfg string
	body          []byte
}

func fetch(t *testing.T, hc *http.Client, base, host, path string) response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = host
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, resp.Header.Get("Etag"), resp.Header.Get(catalyst.HeaderName), body}
}

func compare(t *testing.T, what string, child, inproc response) {
	t.Helper()
	if child.status != inproc.status || child.etag != inproc.etag || child.etagCfg != inproc.etagCfg || !bytes.Equal(child.body, inproc.body) {
		t.Errorf("%s: catalystd answered %d %s (%d-byte map, %d-byte body), the traced stack %d %s (%d-byte map, %d-byte body)",
			what, child.status, child.etag, len(child.etagCfg), len(child.body),
			inproc.status, inproc.etag, len(inproc.etagCfg), len(inproc.body))
	}
}

// TestTracedStackMatchesCatalystd holds the in-process stacks the traced
// run measures to the catalystd child: for every URL of each workload,
// the same status, ETag, X-Etag-Config and body.
func TestTracedStackMatchesCatalystd(t *testing.T) {
	hc := &http.Client{Timeout: 10 * time.Second}
	cfg := &config{Catalystd: bins.catalystd, Self: bins.perfbench, Work: t.TempDir(), Seed: 7}
	t.Cleanup(killAll)

	t.Run("dir", func(t *testing.T) {
		site, err := writeStaticSite(filepath.Join(cfg.Work, "site"), cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		d, base, err := startDirDaemon(context.Background(), cfg, site.Dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer d.stop()
		h, err := newDirStack(site.Dir, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		addr, closeFn, err := serveLoopback(h)
		if err != nil {
			t.Fatal(err)
		}
		defer closeFn()
		for _, p := range append(append([]string(nil), site.Pages...), site.Res...) {
			compare(t, p, fetch(t, hc, base, "", p), fetch(t, hc, "http://"+addr, "", p))
		}
	})

	t.Run("churn", func(t *testing.T) {
		// Both edges front upstreams at the same (initial) virtual time.
		// Each site gets fresh edges, so their probe caches hold the same
		// entries when the two are compared.
		upAddr, err := freeAddr()
		if err != nil {
			t.Fatal(err)
		}
		up, err := startChild(cfg.Self, []string{"upstream", "-seed", fmt.Sprint(cfg.Seed), "-addr", upAddr},
			filepath.Join(cfg.Work, "upstream.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer up.stop()
		if err := waitReady(context.Background(), up, "http://"+upAddr+statsPath); err != nil {
			t.Fatal(err)
		}
		inUp, closeUp, err := serveLoopback(newUpstream(cfg.Seed, newTracer()))
		if err != nil {
			t.Fatal(err)
		}
		defer closeUp()
		cfgPath := filepath.Join(cfg.Work, "tenants.json")
		if err := os.WriteFile(cfgPath, tenantConfigJSON("http://"+upAddr), 0o644); err != nil {
			t.Fatal(err)
		}
		corpus := newChurnCorpus(cfg.Seed)
		urls := churnURLs(corpus)
		for site := range corpus.sites {
			host := churnHost(site)
			edgeAddr, err := freeAddr()
			if err != nil {
				t.Fatal(err)
			}
			edge, err := startChild(cfg.Catalystd, []string{"-config", cfgPath, "-addr", edgeAddr, "-metrics"},
				filepath.Join(cfg.Work, "catalystd.log"))
			if err != nil {
				t.Fatal(err)
			}
			if err := waitReady(context.Background(), edge, "http://"+edgeAddr+catalyst.MetricsPath); err != nil {
				edge.stop()
				t.Fatal(err)
			}
			stack, err := newChurnStackInProc("http://"+inUp, newTracer())
			if err != nil {
				edge.stop()
				t.Fatal(err)
			}
			inEdge, closeEdge, err := serveLoopback(stack.handler)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range urls {
				if u[0] == host {
					compare(t, host+u[1], fetch(t, hc, "http://"+edgeAddr, host, u[1]), fetch(t, hc, "http://"+inEdge, host, u[1]))
				}
			}
			closeEdge()
			stack.close()
			edge.stop()
		}
	})
}
