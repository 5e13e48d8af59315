package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkGoroutines registers a leak assertion: by the time the test's other
// cleanups have run (the httptest server must be created AFTER this call so
// its Close runs first), the goroutine count must be back to the baseline.
// Canceled and deleted runs must not strand SSE followers or executor
// workers — the satellite this helper pins across the suite.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d running, %d at start\n%s",
					runtime.NumGoroutine(), base, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// longRun is a spec whose many small replications give cancellation wide
// replication-boundary windows to land in before it finishes naturally.
const longRun = `{"technique": "Basic", "requests": 200, "rate": 100, "seed": 11, "replications": 400}`

func deleteRun(t *testing.T, url string) RunStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: %d", url, resp.StatusCode)
	}
	var status RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

func waitState(t *testing.T, url string) RunStatus {
	t.Helper()
	var status RunStatus
	getJSON(t, url+"?wait=1", &status)
	return status
}

// TestCancelQueuedRun cancels a run that never started: it dequeues on the
// spot (the DELETE response already reads canceled — its tokens were never
// held), the queue's FIFO order of survivors is untouched, and the
// survivors still run to completion.
func TestCancelQueuedRun(t *testing.T) {
	checkGoroutines(t)
	ts := newTestServer(t, 1)

	var ids []string
	for _, body := range []string{longRun, smallRun, smallRun, smallRun} {
		_, data := postJSON(t, ts.URL+"/v1/runs", body)
		var created RunStatus
		if err := json.Unmarshal(data, &created); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, created.ID)
	}
	// The long head occupies the whole budget; the rest queue in order.
	var q QueueStatus
	getJSON(t, ts.URL+"/v1/queue", &q)
	if q.Depth != 3 || q.Queued[0].RunID != ids[1] || q.Queued[2].RunID != ids[3] {
		t.Fatalf("queue before cancel %+v", q)
	}
	if q.Capacity != 1 || q.InUse != 1 {
		t.Fatalf("occupancy %+v", q)
	}

	// Cancel the middle queued run: synchronous, and survivors keep order.
	if got := deleteRun(t, ts.URL+"/v1/runs/"+ids[2]); got.State != StateCanceled {
		t.Fatalf("DELETE of a queued run answered %+v", got)
	}
	getJSON(t, ts.URL+"/v1/queue", &q)
	if q.Depth != 2 || q.Queued[0].RunID != ids[1] || q.Queued[1].RunID != ids[3] {
		t.Fatalf("queue after cancel %+v", q)
	}

	// Cancel the running head too; the survivors must then drain to done.
	deleteRun(t, ts.URL+"/v1/runs/"+ids[0])
	if got := waitState(t, ts.URL+"/v1/runs/"+ids[0]); got.State != StateCanceled {
		t.Fatalf("running head finished %+v", got)
	}
	for _, id := range []string{ids[1], ids[3]} {
		if got := waitState(t, ts.URL+"/v1/runs/"+id); got.State != StateDone || got.Report == nil {
			t.Fatalf("survivor %s finished %+v", id, got)
		}
	}
	// All tokens released exactly once: empty queue, zero occupancy. (The
	// executor's release panics on a double release, backstopping this.)
	getJSON(t, ts.URL+"/v1/queue", &q)
	if q.Depth != 0 || q.InUse != 0 {
		t.Fatalf("executor did not drain: %+v", q)
	}
}

// TestCancelRunningRun cancels mid-execution: the run lands canceled at a
// replication boundary, its SSE followers are woken into a terminal end
// event (not stranded), and its stream stays a valid strict prefix of the
// spec's full stream.
func TestCancelRunningRun(t *testing.T) {
	checkGoroutines(t)
	ts := newTestServer(t, 2)
	_, body := postJSON(t, ts.URL+"/v1/runs", longRun)
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/runs/" + created.ID

	// Follow the stream from before the cancel: the follower must be
	// released by the terminal event, not left blocked.
	type streamResult struct {
		frames []byte
		end    string
	}
	streamed := make(chan streamResult, 1)
	go func() {
		frames, end := readSSE(t, url+"/stream")
		streamed <- streamResult{frames, end}
	}()

	// Wait until it is actually running so the cancel exercises the
	// context path, not the queue-abort path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var status RunStatus
		getJSON(t, url, &status)
		if status.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached running: %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deleteRun(t, url)

	final := waitState(t, url)
	if final.State != StateCanceled || final.Report != nil || final.Error != "" {
		t.Fatalf("canceled run %+v", final)
	}
	select {
	case got := <-streamed:
		if !strings.Contains(got.end, `"state":"canceled"`) {
			t.Fatalf("end event %s", got.end)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE follower still blocked after cancel")
	}

	// Metrics see the canceled state.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), `pcs_serve_runs{state="canceled"} 1`) {
		t.Fatalf("metrics missing canceled gauge:\n%s", text)
	}
}

// TestCancelAfterCompletion pins the first-terminal-wins rule: DELETE on a
// done run is a no-op — the state stays done and the report survives.
func TestCancelAfterCompletion(t *testing.T) {
	checkGoroutines(t)
	ts := newTestServer(t, 2)
	_, body := postJSON(t, ts.URL+"/v1/runs", smallRun)
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/runs/" + created.ID
	done := waitState(t, url)
	if done.State != StateDone {
		t.Fatalf("run finished %+v", done)
	}
	if got := deleteRun(t, url); got.State != StateDone || got.Report == nil {
		t.Fatalf("DELETE after completion answered %+v", got)
	}
	if got := waitState(t, url); got.State != StateDone || got.Report == nil {
		t.Fatalf("done run mutated by late cancel: %+v", got)
	}
}

// TestCancelConcurrently races two clients DELETEing the same running run
// (run under -race in CI): exactly one terminal transition lands, tokens
// release exactly once, and the freed budget admits a follow-up run.
func TestCancelConcurrently(t *testing.T) {
	checkGoroutines(t)
	ts := newTestServer(t, 1)
	_, body := postJSON(t, ts.URL+"/v1/runs", longRun)
	var created RunStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/runs/" + created.ID

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deleteRun(t, url)
		}()
	}
	wg.Wait()
	if got := waitState(t, url); got.State != StateCanceled {
		t.Fatalf("doubly-canceled run %+v", got)
	}

	// If tokens leaked (or double-released, which panics) this follow-up
	// would never be admitted at capacity 1.
	_, body = postJSON(t, ts.URL+"/v1/runs", smallRun)
	var after RunStatus
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, ts.URL+"/v1/runs/"+after.ID); got.State != StateDone {
		t.Fatalf("post-cancel run finished %+v", got)
	}
	var q QueueStatus
	getJSON(t, ts.URL+"/v1/queue", &q)
	if q.Depth != 0 || q.InUse != 0 {
		t.Fatalf("executor did not drain: %+v", q)
	}
}

// TestCancelSweep cancels a whole sweep mid-flight: every non-terminal
// cell lands canceled, the sweep folds to canceled, and the executor
// drains.
func TestCancelSweep(t *testing.T) {
	checkGoroutines(t)
	ts := newTestServer(t, 1)
	// A sweep of long cells at capacity 1: one runs, three queue.
	sweep := `{
	  "base": {"seed": 3, "requests": 200, "replications": 50},
	  "techniques": ["Basic", "RED-3"],
	  "rates": [1, 2]
	}`
	_, body := postJSON(t, ts.URL+"/v1/sweeps", sweep)
	var created SweepStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE sweep: %d", resp.StatusCode)
	}
	var final SweepStatus
	getJSON(t, ts.URL+"/v1/sweeps/"+created.ID+"?wait=1", &final)
	if final.State != StateCanceled {
		t.Fatalf("canceled sweep folded to %q", final.State)
	}
	for _, cell := range final.Cells {
		if cell.State != StateCanceled && cell.State != StateDone {
			t.Fatalf("cell %s left %q", cell.RunID, cell.State)
		}
	}
	var q QueueStatus
	getJSON(t, ts.URL+"/v1/queue", &q)
	if q.Depth != 0 || q.InUse != 0 {
		t.Fatalf("executor did not drain: %+v", q)
	}
}

// TestCanceledRunHoldsNoTokens pins the order of a running run's
// cancellation: its executor tokens are released before its canceled
// state is published, so a client that reads /v1/queue the moment it sees
// the state finds the budget free. The durable server widens the window
// this used to leave open: the terminal marker's fsync ran between the
// published state and the token release.
func TestCanceledRunHoldsNoTokens(t *testing.T) {
	checkGoroutines(t)
	for _, ts := range []*httptest.Server{newTestServer(t, 1), newDurableServer(t, 1, t.TempDir())} {
		canceledRunHoldsNoTokens(t, ts)
	}
}

func canceledRunHoldsNoTokens(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for round := 0; round < 5; round++ {
		_, body := postJSON(t, ts.URL+"/v1/runs", longRun)
		var created RunStatus
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		url := ts.URL + "/v1/runs/" + created.ID
		var status RunStatus
		for getJSON(t, url, &status); status.State == StateQueued; getJSON(t, url, &status) {
		}
		deleteRun(t, url)
		for getJSON(t, url, &status); !terminalState(status.State); getJSON(t, url, &status) {
		}
		var q QueueStatus
		getJSON(t, ts.URL+"/v1/queue", &q)
		if status.State != StateCanceled || q.Depth != 0 || q.InUse != 0 {
			t.Fatalf("round %d: run %s, queue %+v", round, status.State, q)
		}
	}
}
