// Package failpoint is a deterministic fault-injection framework for the
// concurrency protocol and persistence paths of this repository. Named
// sites are compiled into production code permanently; a disabled site
// costs exactly one atomic pointer load and a predicted branch, so the
// framework can stay linked into the hot seqlock/retrain edges without a
// build-tag fork of the protocol code.
//
// A site is armed with a program — a chain of terms evaluated per hit:
//
//	term    := [P%][N*]action[(arg)]
//	program := term { "->" term }
//
// Actions:
//
//	off          do nothing (used as a countdown prefix)
//	yield        runtime.Gosched — simulates a descheduled writer
//	delay(d)     time.Sleep(d), d a Go duration — stretches a critical
//	             section or freeze window
//	panic        panic("failpoint: <site>") — simulates a handler crash
//	error        InjectErr returns ErrInjected — simulates an I/O or
//	             protocol failure (Inject ignores it)
//	error(msg)   as error, with msg wrapped in the returned error
//	kill         raises SIGKILL on the calling process — a real kill -9,
//	             not a simulated one. Terminal by construction: the
//	             external crash-matrix harness arms it in a child process
//	             to die at an exact log/checkpoint edge, then restarts the
//	             child and audits recovery. Never arm it in-process.
//
// A trailing N* count makes a term fire N hits then advance to the next
// term; the final term, if it carries no count, repeats forever. When the
// program exhausts, the site disarms itself back to the zero-cost path. A
// P% prefix makes a hit fire the term only with probability P (deterministic
// per-site PRNG), without consuming the term's count on the misses.
//
// Examples:
//
//	Enable("core/retrain/freeze", "delay(200us)")  // every freeze stalls
//	Enable("snapio/rename", "2*off->error(crash)") // 3rd hit fails
//	Enable("core/insert/locked", "5%yield")        // 5% of inserts yield
//
// Enable, Disable and Inject are all safe for concurrent use.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/xrand"
)

// ErrInjected is the base error returned by an armed error action. Specs
// with a message return an error wrapping ErrInjected.
var ErrInjected = errors.New("failpoint: injected error")

// Site is one named injection point. Create with New at package init; the
// zero-value method set is safe but a Site must be registered through New
// for Enable to find it.
type Site struct {
	name string
	prog atomic.Pointer[program]
	hits atomic.Int64 // counted only while armed (the disabled path is free)
}

type action uint8

const (
	actOff action = iota
	actYield
	actDelay
	actPanic
	actError
	actKill
)

type term struct {
	act     action
	count   int64 // hits this term covers; 0 on the final term = forever
	percent int   // 0 = always; otherwise fire with this probability
	delay   time.Duration
	err     error
}

// program is a Site's armed state. Terms advance under mu; the pointer in
// Site.prog is swapped to nil once the program exhausts.
type program struct {
	mu    sync.Mutex
	terms []term
	ti    int
	fired int64 // hits consumed from the current term
	rng   *xrand.Rng
}

var registry = struct {
	sync.Mutex
	sites map[string]*Site
}{sites: map[string]*Site{}}

// New registers and returns the site for name. Calling New twice with the
// same name returns the same Site, so tests and production code can both
// reference a site by declaring it.
func New(name string) *Site {
	registry.Lock()
	defer registry.Unlock()
	if s, ok := registry.sites[name]; ok {
		return s
	}
	s := &Site{name: name}
	registry.sites[name] = s
	return s
}

// Names returns every registered site name, sorted — the failpoint catalog.
func Names() []string {
	registry.Lock()
	out := make([]string, 0, len(registry.sites))
	for n := range registry.sites {
		out = append(out, n)
	}
	registry.Unlock()
	sort.Strings(out)
	return out
}

// Enable arms the named site with spec. The site must have been registered
// (typo protection); the spec must parse.
func Enable(name, spec string) error {
	registry.Lock()
	s, ok := registry.sites[name]
	registry.Unlock()
	if !ok {
		return fmt.Errorf("failpoint: unknown site %q", name)
	}
	terms, err := parseSpec(name, spec)
	if err != nil {
		return err
	}
	p := &program{terms: terms, rng: xrand.New(xrand.HashString(name + "|" + spec))}
	s.prog.Store(p)
	s.hits.Store(0)
	return nil
}

// Disable disarms the named site (a no-op if unknown or already disabled).
func Disable(name string) {
	registry.Lock()
	s, ok := registry.sites[name]
	registry.Unlock()
	if ok {
		s.prog.Store(nil)
	}
}

// DisableAll disarms every registered site.
func DisableAll() {
	registry.Lock()
	sites := make([]*Site, 0, len(registry.sites))
	for _, s := range registry.sites {
		sites = append(sites, s)
	}
	registry.Unlock()
	for _, s := range sites {
		s.prog.Store(nil)
	}
}

// Hits returns how many times the named site fired while armed (0 for
// unknown sites). Used by tests to assert a chaos run actually exercised a
// site.
func Hits(name string) int64 {
	registry.Lock()
	s, ok := registry.sites[name]
	registry.Unlock()
	if !ok {
		return 0
	}
	return s.hits.Load()
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Inject evaluates the site, ignoring an error action's result. This is
// the hook for protocol edges that cannot propagate errors (slot writes,
// freezes, buffer hops): disabled cost is one atomic load.
func (s *Site) Inject() {
	if p := s.prog.Load(); p != nil {
		_ = s.eval(p)
	}
}

// InjectErr evaluates the site and returns the injected error, if the
// current term is an error action. This is the hook for persistence paths.
func (s *Site) InjectErr() error {
	if p := s.prog.Load(); p != nil {
		return s.eval(p)
	}
	return nil
}

// eval runs one armed hit. The program lock serializes term advancement;
// the actions themselves (sleep, yield, panic) run outside it so a delayed
// goroutine does not block other hits from advancing the program.
func (s *Site) eval(p *program) error {
	p.mu.Lock()
	if p.ti >= len(p.terms) {
		p.mu.Unlock()
		s.prog.CompareAndSwap(p, nil) // exhausted; restore the fast path
		return nil
	}
	t := p.terms[p.ti]
	if t.percent > 0 && p.rng.Intn(100) >= t.percent {
		p.mu.Unlock()
		return nil // probabilistic miss; the term's count is not consumed
	}
	if t.count > 0 {
		p.fired++
		if p.fired >= t.count {
			p.ti++
			p.fired = 0
		}
	}
	p.mu.Unlock()

	s.hits.Add(1)
	switch t.act {
	case actYield:
		runtime.Gosched()
	case actDelay:
		time.Sleep(t.delay)
	case actPanic:
		panic("failpoint: " + s.name)
	case actError:
		return t.err
	case actKill:
		killSelf()
	}
	return nil
}

// killSelf delivers SIGKILL to the current process and then parks the
// calling goroutine: SIGKILL cannot be caught, so the process is gone the
// instant the kernel schedules the delivery, and nothing after the site
// (an fsync, an ack, a rename) can run first — exactly the crash the
// recovery audit needs to be placed before.
func killSelf() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	select {}
}

// parseSpec compiles "term->term->..." into a term list.
func parseSpec(site, spec string) ([]term, error) {
	parts := strings.Split(spec, "->")
	terms := make([]term, 0, len(parts))
	for i, raw := range parts {
		t, err := parseTerm(site, strings.TrimSpace(raw))
		if err != nil {
			return nil, err
		}
		// A non-final term with no explicit count fires once; a final
		// term with no count repeats forever (count 0).
		if t.count == 0 && i != len(parts)-1 {
			t.count = 1
		}
		terms = append(terms, t)
	}
	return terms, nil
}

func parseTerm(site, s string) (term, error) {
	var t term
	if s == "" {
		return t, fmt.Errorf("failpoint: empty term in spec for %q", site)
	}
	if i := strings.IndexByte(s, '%'); i >= 0 {
		p, err := strconv.Atoi(s[:i])
		if err != nil || p < 1 || p > 100 {
			return t, fmt.Errorf("failpoint: bad probability %q for %q", s[:i], site)
		}
		t.percent = p
		s = s[i+1:]
	}
	if i := strings.IndexByte(s, '*'); i >= 0 {
		n, err := strconv.ParseInt(s[:i], 10, 64)
		if err != nil || n < 1 {
			return t, fmt.Errorf("failpoint: bad count %q for %q", s[:i], site)
		}
		t.count = n
		s = s[i+1:]
	}
	arg := ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return t, fmt.Errorf("failpoint: unclosed argument in %q for %q", s, site)
		}
		arg = s[i+1 : len(s)-1]
		s = s[:i]
	}
	switch s {
	case "off", "yield", "panic", "kill":
		if arg != "" {
			return t, fmt.Errorf("failpoint: action %q takes no argument (got %q) for %q", s, arg, site)
		}
		switch s {
		case "off":
			t.act = actOff
		case "yield":
			t.act = actYield
		case "panic":
			t.act = actPanic
		case "kill":
			t.act = actKill
		}
	case "delay", "sleep":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return t, fmt.Errorf("failpoint: bad delay %q for %q", arg, site)
		}
		t.act = actDelay
		t.delay = d
	case "error":
		t.act = actError
		if arg == "" {
			t.err = ErrInjected
		} else {
			t.err = fmt.Errorf("%w: %s (site %s)", ErrInjected, arg, site)
		}
	default:
		return t, fmt.Errorf("failpoint: unknown action %q for %q", s, site)
	}
	return t, nil
}
