package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"regmutex/internal/obs"
)

// TestJournalTornTailReplay: a crash mid-append leaves a partial final
// JSONL record. Replay must skip it with a structured warning — not fail
// New, not lose the intact records before it.
func TestJournalTornTailReplay(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	j, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2})
	if body != nil {
		t.Fatalf("submit: %v", body)
	}
	s1.Close()

	// Simulate the torn write: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"j9999`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logs bytes.Buffer
	logger, err := obs.NewLogger(&logs, obs.LogJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 2, PoolWorkers: 4, JournalPath: path, Logger: logger})
	if err != nil {
		t.Fatalf("New failed on torn journal tail: %v", err)
	}
	if got := s2.QueueLen(); got != 1 {
		t.Fatalf("replayed queue length = %d, want 1 (the intact record)", got)
	}
	if !strings.Contains(logs.String(), "torn final record") {
		t.Fatalf("no structured torn-record warning logged:\n%s", logs.String())
	}
	s2.Start()
	if v := waitDone(t, s2, j.ID, 2*time.Minute); v.State != StateDone {
		t.Fatalf("replayed job state = %q (%+v)", v.State, v.Error)
	}
	s2.Close()

	// The finish record written after the torn tail must stand on its
	// own line: the finished job never replays again, and the appends of
	// the next life leave a journal that still opens.
	s3, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("third start: %v", err)
	}
	if got := s3.QueueLen(); got != 0 {
		t.Fatalf("third start replayed %d job(s), want 0 (the job finished)", got)
	}
	if _, body := s3.Submit(SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2}); body != nil {
		t.Fatalf("submit: %v", body)
	}
	s3.Close()
	s4, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("fourth start: %v", err)
	}
	defer s4.Close()
	if got := s4.QueueLen(); got != 1 {
		t.Fatalf("fourth start replayed %d job(s), want 1 (the unstarted submit)", got)
	}
}

// TestJournalMidFileCorruptionFails: an unparseable record that is NOT
// the final line is corruption, not a crash artifact — silently dropping
// it could lose an accepted job, so New must refuse.
func TestJournalMidFileCorruptionFails(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	content := `{"op":"accept","id":"j000001","req":{"workload":"bfs"}}
GARBAGE NOT JSON
{"op":"finish","id":"j000001","state":"done"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Workers: 1, JournalPath: path})
	if err == nil || !strings.Contains(err.Error(), "corrupt record at line 2") {
		t.Fatalf("New = %v, want corrupt-record error naming line 2", err)
	}
}

// TestJournalNoSync: with JournalNoSync the journal still records and
// replays (durability against power loss is relaxed, not correctness).
func TestJournalNoSync(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := New(Config{Workers: 1, JournalPath: path, JournalNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static"}); body != nil {
		t.Fatalf("submit: %v", body)
	}
	s1.Close()
	s2 := newTestService(t, Config{Workers: 1, JournalPath: path, JournalNoSync: true})
	if got := s2.QueueLen(); got != 1 {
		t.Fatalf("replayed queue length = %d, want 1", got)
	}
}

// readSSE drains one SSE response into (id, event-json) pairs until the
// stream ends or maxEvents arrive.
func readSSE(t *testing.T, resp *http.Response, maxEvents int) (ids []int, events []Event) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	id := -1
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id:"):
			n, err := strconv.Atoi(strings.TrimSpace(line[3:]))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			id = n
		case strings.HasPrefix(line, "data:"):
			var ev Event
			if err := json.Unmarshal([]byte(line[5:]), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			ids = append(ids, id)
			events = append(events, ev)
			if len(events) >= maxEvents {
				return ids, events
			}
		}
	}
	return ids, events
}

// TestSSEResumeWithLastEventID: every frame carries a monotonically
// increasing id:, and a reconnect with Last-Event-ID picks up exactly
// after the last delivered frame — no missed or repeated state
// transitions across the reconnect.
func TestSSEResumeWithLastEventID(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, PoolWorkers: 4})
	ts := httptest.NewServer(Handler(s, WithSSEKeepalive(50*time.Millisecond)))
	defer ts.Close()

	// No Start() yet: the first connection sees only the queued event.
	_, view := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":8,"sms":2}`, "")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	ids, events := readSSE(t, resp, 1)
	resp.Body.Close() // client drops mid-stream
	if len(events) != 1 || events[0].State != StateQueued || ids[0] != 0 {
		t.Fatalf("first connection saw ids=%v events=%+v, want the queued event with id 0", ids, events)
	}

	// Let the job run to completion, then reconnect with Last-Event-ID.
	s.Start()
	if v := waitDone(t, s, view.ID, time.Minute); v.State != StateDone {
		t.Fatalf("job state %q (%+v)", v.State, v.Error)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(ids[0]))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ids2, events2 := readSSE(t, resp, 1000)

	// Resume starts exactly one past the last-seen frame and stays
	// strictly monotonic through the terminal state.
	if len(ids2) == 0 || ids2[0] != ids[0]+1 {
		t.Fatalf("resume started at ids %v, want first id %d", ids2, ids[0]+1)
	}
	for i := 1; i < len(ids2); i++ {
		if ids2[i] != ids2[i-1]+1 {
			t.Fatalf("ids not monotonic across resume: %v", ids2)
		}
	}
	var states []string
	for _, ev := range events2 {
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	// The queued event was already delivered before the disconnect; the
	// resumed stream must carry the remaining transitions exactly once.
	want := []string{StateRunning, StateDone}
	if len(states) != len(want) || states[0] != want[0] || states[1] != want[1] {
		t.Fatalf("resumed state transitions = %v, want %v", states, want)
	}
}

// TestReadyzLoadHints: /readyz carries the router's scoring inputs and a
// Retry-After when draining.
func TestReadyzLoadHints(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// Two queued jobs (no Start) show up in the queued hint.
	for i := 0; i < 2; i++ {
		if _, view := postJob(t, ts, `{"workload":"bfs","policy":"static"}`, ""); view.ID == "" {
			t.Fatal("submit failed")
		}
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status  string `json:"status"`
		Queued  int    `json:"queued"`
		Running int    `json:"running"`
		MemoLen int    `json:"memo_len"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != 200 || body.Status != "ok" || body.Queued != 2 {
		t.Fatalf("readyz = %d %+v, want 200 ok with queued=2", resp.StatusCode, body)
	}

	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining readyz = %d Retry-After=%q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestFingerprintIdentity: the fingerprint resolves defaults (so a
// request spelled explicitly equals its defaulted twin), ignores
// attribution fields, and separates anything that changes the result.
func TestFingerprintIdentity(t *testing.T) {
	seed := uint64(42)
	base := SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2}
	explicit := SubmitRequest{Kind: "run", Workload: "bfs", Policies: []string{"static"},
		Scale: 8, SMs: 2, Seed: &seed}
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Error("defaulted and explicit requests should share a fingerprint")
	}
	attributed := base
	attributed.Client, attributed.Priority = "someone-else", 7
	if base.Fingerprint() != attributed.Fingerprint() {
		t.Error("client/priority must not affect the fingerprint")
	}
	for name, mutate := range map[string]func(*SubmitRequest){
		"workload":   func(r *SubmitRequest) { r.Workload = "sad" },
		"policy":     func(r *SubmitRequest) { r.Policy = "regmutex" },
		"scale":      func(r *SubmitRequest) { r.Scale = 4 },
		"sms":        func(r *SubmitRequest) { r.SMs = 4 },
		"seed":       func(r *SubmitRequest) { v := uint64(7); r.Seed = &v },
		"half":       func(r *SubmitRequest) { r.Half = true },
		"max_cycles": func(r *SubmitRequest) { r.MaxCycles = 99 },
	} {
		r := base
		mutate(&r)
		if r.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
	exp := SubmitRequest{Experiment: "storage"}
	if exp.Fingerprint() == base.Fingerprint() {
		t.Error("experiment and run requests collide")
	}
}
