package flight

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/traceview"
)

// BundleSchemaVersion identifies the debug-bundle layout; bump on breaking
// changes so kbdump can refuse files it cannot interpret.
const BundleSchemaVersion = 1

// Env is the build/flag/environment stamp of a bundle: enough to tell
// which binary, on which machine, with which invocation produced it.
type Env struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	PID         int    `json:"pid"`
	Hostname    string `json:"hostname,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
}

// CurrentEnv captures the running process's environment stamp.
func CurrentEnv() Env {
	host, _ := os.Hostname()
	e := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PID:        os.Getpid(),
		Hostname:   host,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.VCSRevision = s.Value
			}
		}
	}
	return e
}

// Manifest is the bundle header: schema, provenance and section inventory.
type Manifest struct {
	SchemaVersion  int      `json:"schema_version"`
	CreatedUnix    int64    `json:"created_unix"`
	Reason         string   `json:"reason"`
	Cmd            string   `json:"cmd,omitempty"`
	Args           []string `json:"args,omitempty"`
	Env            Env      `json:"env"`
	EventsTotal    uint64   `json:"events_total"`
	EventsRetained int      `json:"events_retained"`
	Sections       []string `json:"sections"`
}

// Bundle is a captured post-mortem document. As a directory (WriteDir) each
// section is its own file; over /debugz it is served as this single JSON
// object. Events are kept as raw JSON lines so the two forms round-trip.
type Bundle struct {
	Manifest
	Events     []json.RawMessage `json:"events"`
	Metrics    obs.Snapshot      `json:"metrics"`
	Goroutines string            `json:"goroutines"`
	KBDigest   json.RawMessage   `json:"kb_digest,omitempty"`
	Journal    json.RawMessage   `json:"journal,omitempty"`
	// Attr is the per-rule attribution snapshot; present only when
	// attribution was enabled at capture time (additive section, so the
	// schema version is unchanged).
	Attr *obs.RuleSnapshot `json:"attr,omitempty"`
	// Trace is the question-latency digest of the closed spans in the
	// event ring: the slowest recent questions with their waterfall
	// decompositions. Present whenever the ring was on at capture time
	// (additive section).
	Trace *traceview.Digest `json:"trace,omitempty"`
	// Runtime is a fresh runtime/metrics reading (goroutines, heap
	// live/goal, GC pause and scheduling-latency quantiles) taken at
	// capture time (additive section).
	Runtime *obs.RuntimeStats `json:"runtime,omitempty"`
	// Plans is the join-plan annotation registry (internal/homo.PlanInfos):
	// per body, the kernel mode and the compile-time join order. Present
	// only when at least one plan was compiled (additive section).
	Plans json.RawMessage `json:"plans,omitempty"`
	// HeapProfile, MutexProfile and BlockProfile hold the corresponding
	// runtime/pprof profiles in their debug=1 text form — human-readable
	// next to goroutines.txt, and mutex/block are empty-but-present unless
	// -mutex-profile-fraction / -block-profile-rate enabled sampling
	// (additive sections).
	HeapProfile  string `json:"heap_profile,omitempty"`
	MutexProfile string `json:"mutex_profile,omitempty"`
	BlockProfile string `json:"block_profile,omitempty"`
}

// providers supply the KB-shaped sections the flight package cannot compute
// itself (it must not depend on core/inquiry — they depend on it). The
// returned values are marshaled at capture time, so providers must be safe
// to call from the signal-handler goroutine: return immutable values or an
// internally synchronized snapshot.
var (
	providerMu      sync.Mutex
	digestProvider  func() any
	journalProvider func() any
	plansProvider   func() any
	bundleCmd       string
)

// SetDigestProvider installs the KB-digest section source (nil clears it).
// The CLIs call it once the KB is loaded, with a precomputed digest.
func SetDigestProvider(fn func() any) {
	providerMu.Lock()
	defer providerMu.Unlock()
	digestProvider = fn
}

// SetJournalProvider installs the inquiry-journal section source (nil
// clears it). The provider is invoked concurrently with the session —
// it must return a synchronized snapshot.
func SetJournalProvider(fn func() any) {
	providerMu.Lock()
	defer providerMu.Unlock()
	journalProvider = fn
}

// SetPlansProvider installs the join-plan annotation section source (nil
// clears it). internal/homo registers it at init, so every bundle of a
// process that compiled plans carries their modes and orders; the provider
// must return an immutable snapshot (homo.PlanInfos copies).
func SetPlansProvider(fn func() any) {
	providerMu.Lock()
	defer providerMu.Unlock()
	plansProvider = fn
}

// setCmd stamps the command name used in manifests and fallback dump paths.
func setCmd(name string) {
	providerMu.Lock()
	defer providerMu.Unlock()
	bundleCmd = name
}

func marshalSection(fn func() any) json.RawMessage {
	if fn == nil {
		return nil
	}
	v := fn()
	if v == nil {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		data, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return data
}

// Capture assembles a bundle from the current process state: the event
// ring and its trace digest (both absent if the ring is disabled), a
// metrics snapshot of the default registry, all goroutine stacks, the
// environment stamp and the provider-supplied KB digest and inquiry
// journal. It also records a flight.bundle_dump event so later bundles
// show this capture in their timeline.
func Capture(reason string) *Bundle {
	obs.Point(obs.KindBundleDump, reason)
	providerMu.Lock()
	digFn, jrnFn, plnFn, cmd := digestProvider, journalProvider, plansProvider, bundleCmd
	providerMu.Unlock()

	b := &Bundle{
		Manifest: Manifest{
			SchemaVersion: BundleSchemaVersion,
			CreatedUnix:   time.Now().Unix(),
			Reason:        reason,
			Cmd:           cmd,
			Args:          os.Args,
			Env:           CurrentEnv(),
		},
		Metrics:      obs.Default().Snapshot(),
		Goroutines:   allStacks(),
		KBDigest:     marshalSection(digFn),
		Journal:      marshalSection(jrnFn),
		Plans:        marshalSection(plnFn),
		Attr:         obs.CaptureRules(),
		Runtime:      obs.ReadRuntime(),
		HeapProfile:  profileText("heap"),
		MutexProfile: profileText("mutex"),
		BlockProfile: profileText("block"),
	}
	if r := obs.CurrentRing(); r != nil {
		// Events before Total: the total then counts at least every
		// retained event, however many writers race the capture.
		events := r.Events()
		b.EventsTotal = r.Total()
		b.EventsRetained = len(events)
		b.Events = make([]json.RawMessage, len(events))
		for i, e := range events {
			b.Events[i] = e.AppendJSON(nil, r.BaseUS())
		}
		b.Trace = traceview.BuildDigest(obs.SpanRecords(events), b.EventsTotal, BundleTraceQuestions)
	}
	b.Sections = b.sections()
	return b
}

func (b *Bundle) sections() []string {
	s := []string{"events.jsonl", "metrics.json", "goroutines.txt", "manifest.json"}
	if len(b.KBDigest) > 0 {
		s = append(s, "kb_digest.json")
	}
	if len(b.Journal) > 0 {
		s = append(s, "journal.json")
	}
	if len(b.Plans) > 0 {
		s = append(s, "plans.json")
	}
	if b.Attr != nil {
		s = append(s, "attr.json")
	}
	if b.Trace != nil {
		s = append(s, "trace.json")
	}
	if b.Runtime != nil {
		s = append(s, "runtime.json")
	}
	if b.HeapProfile != "" {
		s = append(s, "heap.pprof")
	}
	if b.MutexProfile != "" {
		s = append(s, "mutex.pprof")
	}
	if b.BlockProfile != "" {
		s = append(s, "block.pprof")
	}
	return s
}

// profileText renders a runtime/pprof profile in its debug=1 text form,
// or "" when the profile does not exist. Safe from the signal-handler
// goroutine: the pprof package serializes profile collection internally.
func profileText(name string) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	return buf.String()
}

// BundleTraceQuestions is how many slowest question waterfalls a bundle's
// trace section retains.
const BundleTraceQuestions = 10

// allStacks returns the stacks of every goroutine, growing the buffer until
// the dump fits.
func allStacks() string {
	buf := make([]byte, 1<<18)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// WriteJSON writes the bundle as one JSON document (the /debugz format).
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteDir writes the bundle as a directory of section files:
//
//	manifest.json   schema, reason, cmd/args, env stamp, event counts
//	events.jsonl    the retained ring events, oldest first, one per line
//	metrics.json    obs registry snapshot
//	goroutines.txt  all goroutine stacks
//	kb_digest.json  predicate/rule/conflict digest of the loaded KB (if set)
//	journal.json    the inquiry journal so far (if set)
//	plans.json      join-plan annotations: per-body kernel mode and order
//	runtime.json    runtime/metrics reading at capture time
//	heap.pprof      heap profile, debug=1 text form
//	mutex.pprof     mutex contention profile (sampled only when enabled)
//	block.pprof     block profile (sampled only when enabled)
//
// The directory is created if needed. Existing section files are
// overwritten, so repeated dumps to the same directory keep the latest.
func (b *Bundle) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("debug bundle: %w", err)
	}
	var events bytes.Buffer
	for _, e := range b.Events {
		events.Write(e)
		events.WriteByte('\n')
	}
	manifest, err := json.MarshalIndent(b.Manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("debug bundle: %w", err)
	}
	metrics, err := json.MarshalIndent(b.Metrics, "", "  ")
	if err != nil {
		return fmt.Errorf("debug bundle: %w", err)
	}
	files := map[string][]byte{
		"manifest.json":  append(manifest, '\n'),
		"events.jsonl":   events.Bytes(),
		"metrics.json":   append(metrics, '\n'),
		"goroutines.txt": []byte(b.Goroutines),
	}
	if len(b.KBDigest) > 0 {
		files["kb_digest.json"] = append(append([]byte(nil), b.KBDigest...), '\n')
	}
	if len(b.Journal) > 0 {
		files["journal.json"] = append(append([]byte(nil), b.Journal...), '\n')
	}
	if len(b.Plans) > 0 {
		files["plans.json"] = append(append([]byte(nil), b.Plans...), '\n')
	}
	if b.Attr != nil {
		attrData, err := json.MarshalIndent(b.Attr, "", "  ")
		if err != nil {
			return fmt.Errorf("debug bundle: %w", err)
		}
		files["attr.json"] = append(attrData, '\n')
	}
	if b.Trace != nil {
		traceData, err := json.MarshalIndent(b.Trace, "", "  ")
		if err != nil {
			return fmt.Errorf("debug bundle: %w", err)
		}
		files["trace.json"] = append(traceData, '\n')
	}
	if b.Runtime != nil {
		rtData, err := json.MarshalIndent(b.Runtime, "", "  ")
		if err != nil {
			return fmt.Errorf("debug bundle: %w", err)
		}
		files["runtime.json"] = append(rtData, '\n')
	}
	if b.HeapProfile != "" {
		files["heap.pprof"] = []byte(b.HeapProfile)
	}
	if b.MutexProfile != "" {
		files["mutex.pprof"] = []byte(b.MutexProfile)
	}
	if b.BlockProfile != "" {
		files["block.pprof"] = []byte(b.BlockProfile)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fmt.Errorf("debug bundle: %w", err)
		}
	}
	return nil
}

// ReadBundle loads a bundle from a directory written by WriteDir or from a
// single-document JSON file (the /debugz format) — kbdump accepts both.
// Sections this binary no longer writes, such as the sched.json
// worker-lane snapshot of older bundles, are ignored.
func ReadBundle(path string) (*Bundle, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("debug bundle: %w", err)
	}
	if !fi.IsDir() {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("debug bundle: %w", err)
		}
		defer f.Close()
		b, err := DecodeBundle(f)
		if err != nil {
			return nil, fmt.Errorf("debug bundle %s: %w", path, err)
		}
		return b, nil
	}

	var b Bundle
	manifest, err := os.ReadFile(filepath.Join(path, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("debug bundle %s: %w", path, err)
	}
	if err := json.Unmarshal(manifest, &b.Manifest); err != nil {
		return nil, fmt.Errorf("debug bundle %s: manifest: %w", path, err)
	}
	if err := b.checkSchema(); err != nil {
		return nil, fmt.Errorf("debug bundle %s: %w", path, err)
	}
	if data, err := os.ReadFile(filepath.Join(path, "events.jsonl")); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			if !json.Valid(line) {
				return nil, fmt.Errorf("debug bundle %s: events.jsonl holds an invalid line: %.80s", path, line)
			}
			b.Events = append(b.Events, json.RawMessage(append([]byte(nil), line...)))
		}
	}
	if data, err := os.ReadFile(filepath.Join(path, "metrics.json")); err == nil {
		if err := json.Unmarshal(data, &b.Metrics); err != nil {
			return nil, fmt.Errorf("debug bundle %s: metrics: %w", path, err)
		}
	}
	if data, err := os.ReadFile(filepath.Join(path, "goroutines.txt")); err == nil {
		b.Goroutines = string(data)
	}
	if data, err := os.ReadFile(filepath.Join(path, "kb_digest.json")); err == nil {
		b.KBDigest = json.RawMessage(bytes.TrimSpace(data))
	}
	if data, err := os.ReadFile(filepath.Join(path, "journal.json")); err == nil {
		b.Journal = json.RawMessage(bytes.TrimSpace(data))
	}
	if data, err := os.ReadFile(filepath.Join(path, "plans.json")); err == nil {
		b.Plans = json.RawMessage(bytes.TrimSpace(data))
	}
	if data, err := os.ReadFile(filepath.Join(path, "attr.json")); err == nil {
		var s obs.RuleSnapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("debug bundle %s: attr: %w", path, err)
		}
		b.Attr = &s
	}
	if data, err := os.ReadFile(filepath.Join(path, "trace.json")); err == nil {
		var d traceview.Digest
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("debug bundle %s: trace: %w", path, err)
		}
		b.Trace = &d
	}
	if data, err := os.ReadFile(filepath.Join(path, "runtime.json")); err == nil {
		var r obs.RuntimeStats
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("debug bundle %s: runtime: %w", path, err)
		}
		b.Runtime = &r
	}
	if data, err := os.ReadFile(filepath.Join(path, "heap.pprof")); err == nil {
		b.HeapProfile = string(data)
	}
	if data, err := os.ReadFile(filepath.Join(path, "mutex.pprof")); err == nil {
		b.MutexProfile = string(data)
	}
	if data, err := os.ReadFile(filepath.Join(path, "block.pprof")); err == nil {
		b.BlockProfile = string(data)
	}
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("debug bundle %s: %w", path, err)
	}
	return &b, nil
}

// DecodeBundle reads a single-document bundle (the /debugz format) and
// applies the same schema and consistency checks as ReadBundle — kbdump
// -follow decodes live captures through it.
func DecodeBundle(r io.Reader) (*Bundle, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if err := b.checkSchema(); err != nil {
		return nil, err
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

func (b *Bundle) checkSchema() error {
	if b.SchemaVersion != BundleSchemaVersion {
		return fmt.Errorf("schema version %d, this binary reads %d", b.SchemaVersion, BundleSchemaVersion)
	}
	return nil
}

// validate rejects what the renderers cannot read: event counts that
// disagree with the events present (an eviction count would underflow),
// and histogram snapshots of the wrong shape (see
// obs.HistogramSnapshot.Validate), so a malformed file fails with an error
// rather than a panic or a nonsense figure.
func (b *Bundle) validate() error {
	if b.EventsRetained != len(b.Events) {
		return fmt.Errorf("manifest: events_retained %d, but %d events present", b.EventsRetained, len(b.Events))
	}
	if b.EventsTotal < uint64(b.EventsRetained) {
		return fmt.Errorf("manifest: events_total %d is below events_retained %d", b.EventsTotal, b.EventsRetained)
	}
	if err := b.Metrics.Validate(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if b.Attr != nil {
		if err := b.Attr.Validate(); err != nil {
			return fmt.Errorf("attr: %w", err)
		}
	}
	return nil
}

// Config is the post-mortem surface the CLIs expose as flags.
type Config struct {
	// BundleDir, when non-empty, receives a debug bundle at exit (and names
	// the target of signal/panic dumps). Empty leaves signal/panic dumps to
	// a per-process fallback under the OS temp directory.
	BundleDir string
	// Events is the event-ring capacity; 0 (the default) starts at
	// obs.DefaultRingCapacity and lets Autosize grow the ring once the KB
	// is loaded, an explicit positive value is used as-is, and < 0
	// disables the ring entirely.
	Events int
}

// AddFlags registers the shared post-mortem flags on fs, mirroring
// obs.AddFlags so every CLI exposes an identical surface.
func AddFlags(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.StringVar(&c.BundleDir, "debug-bundle", "",
		"write a post-mortem debug bundle to this directory at exit (signal/panic dumps also land here)")
	fs.IntVar(&c.Events, "flight-events", 0,
		"event ring capacity (omit to autosize from the KB, negative disables)")
	return c
}

// Autosize resizes the process-wide event ring for a KB of the given fact
// count — only when the user left -flight-events at its default (an
// explicit capacity always wins). The CLIs call it right after the KB is
// loaded; events recorded before the call are carried over.
func (c Config) Autosize(facts int) {
	if c.Events != 0 {
		return
	}
	obs.ResizeRing(AutosizeCapacity(facts))
}

// dumpDir resolves where unsolicited (signal, panic) bundles go: the
// configured -debug-bundle directory, or a per-process directory under the
// OS temp dir so a crash always leaves something to inspect.
func (c Config) dumpDir(cmd string) string {
	if c.BundleDir != "" {
		return c.BundleDir
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("%s-bundle-%d", cmd, os.Getpid()))
}

// Setup wires the post-mortem machinery for a CLI: enables the always-on
// event ring (unless c.Events < 0), installs the SIGQUIT/SIGUSR1 dump
// handler, and returns the finish function main calls once on exit — it
// writes the at-exit bundle when -debug-bundle was given, else does
// nothing. Pair it with a deferred HandlePanic() in main.
func Setup(cmd string, c Config) (finish func() error) {
	setCmd(cmd)
	if c.Events >= 0 {
		obs.EnableRing(c.Events)
	}
	dir := c.dumpDir(cmd)
	panicDir.Store(&dir)
	notifySignals(dir)
	if c.BundleDir == "" {
		return func() error { return nil }
	}
	return func() error {
		if err := Capture("exit").WriteDir(c.BundleDir); err != nil {
			return err
		}
		return nil
	}
}

// panicDir is where HandlePanic and the signal handler write; set by Setup.
var panicDir atomic.Pointer[string]

// HandlePanic is deferred at the top of each CLI's main: on a panic it
// captures a "panic" bundle (with the panic value stamped into the reason)
// and re-panics so the process still crashes loudly with the original
// stack. On the normal path it is a no-op.
func HandlePanic() {
	r := recover()
	if r == nil {
		return
	}
	var dir string
	if p := panicDir.Load(); p != nil {
		dir = *p
	}
	if dir == "" {
		dir = filepath.Join(os.TempDir(), fmt.Sprintf("kbrepair-bundle-%d", os.Getpid()))
	}
	reason := fmt.Sprintf("panic: %v", r)
	if err := Capture(reason).WriteDir(dir); err != nil {
		fmt.Fprintf(os.Stderr, "flight: panic bundle: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "flight: wrote panic debug bundle to %s\n", dir)
	}
	panic(r)
}

// debugzHandler serves the current bundle as a single JSON document — the
// on-demand dump of a live process, mounted at /debugz on obs.DebugMux.
func debugzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reason := "http"
		if q := strings.TrimSpace(req.URL.Query().Get("reason")); q != "" {
			reason = "http:" + q
		}
		w.Header().Set("Content-Type", "application/json")
		// Render errors past the first byte cannot be reported over HTTP.
		_ = Capture(reason).WriteJSON(w)
	})
}

// TestBundleEnv, when set in the environment, names the directory tree
// test-failure bundles land in (one subdirectory per test binary). The
// repo's make test sets it so a red tier-1 run leaves post-mortem bundles
// for CI to upload.
const TestBundleEnv = "KBREPAIR_TEST_BUNDLE"

// DumpOnTestFailure writes a debug bundle when a test binary failed: call
// it from TestMain after m.Run, passing the exit code, before os.Exit. It
// is a no-op when the run passed or TestBundleEnv is unset, so regular
// local test runs never write anything.
func DumpOnTestFailure(code int) {
	root := os.Getenv(TestBundleEnv)
	if code == 0 || root == "" {
		return
	}
	name := strings.TrimSuffix(filepath.Base(os.Args[0]), ".test")
	dir := filepath.Join(root, name)
	if err := Capture("test-failure").WriteDir(dir); err != nil {
		fmt.Fprintf(os.Stderr, "flight: test-failure bundle: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "flight: wrote test-failure debug bundle to %s\n", dir)
}

func init() {
	obs.RegisterDebugHandler("/debugz", debugzHandler())
}
