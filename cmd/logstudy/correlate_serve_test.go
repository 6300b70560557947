package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"whatsupersay/internal/correlate"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
)

// The HTTP-level correlation differential: GET /api/correlations must
// serve a graph byte-identical to a from-scratch batch mine over the
// same entries, and GET /api/predict the report a batch evaluation of
// those entries produces (it is a pure function of the merged columns),
// on every layout and shard count. Plus the response-bounding contract:
// limit defaults, caps, and 400s shared with /api/subscriptions.

// correlationsBody is the wire form of GET /api/correlations.
type correlationsBody struct {
	WindowNS  int64            `json:"window_ns"`
	NodeMode  string           `json:"node_mode"`
	Events    int              `json:"events"`
	Settled   bool             `json:"settled"`
	NodeCount int              `json:"node_count"`
	Nodes     []correlate.Node `json:"nodes"`
	EdgeCount int              `json:"edge_count"`
	Edges     []correlate.Edge `json:"edges"`
	Truncated bool             `json:"truncated"`
}

// getCorrelationsSettled polls the endpoint until the miner reports
// settled, so the comparison runs against a fully-installed graph.
func getCorrelationsSettled(t *testing.T, baseURL string) correlationsBody {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var body correlationsBody
		getJSON(t, baseURL+"/api/correlations?limit=1000", &body)
		if body.Settled {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatal("correlation miner did not settle within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkCorrelationsDifferential pins the served graph to the batch mine
// over the same entries.
func checkCorrelationsDifferential(t *testing.T, baseURL string, entries []store.Entry) {
	t.Helper()
	body := getCorrelationsSettled(t, baseURL)
	want := correlate.MineEntries(correlate.Config{}, entries)
	got := correlate.Graph{
		Window:   time.Duration(body.WindowNS),
		NodeMode: body.NodeMode,
		Events:   body.Events,
		Nodes:    body.Nodes,
		Edges:    body.Edges,
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Fatalf("served graph diverges from batch mine\nserved: %s\nbatch:  %s", g, w)
	}
	if body.NodeCount != len(want.Nodes) || body.EdgeCount != len(want.Edges) || body.Truncated {
		t.Fatalf("graph counts diverge: %+v", body)
	}
}

// correlateServeEntries fabricates Liberty entries whose categories
// cascade, spread across sources so sharding splits windowed pairs.
func correlateServeEntries(n int) []store.Entry {
	base := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
	cats := []string{"GM_PAR", "GM_LANAI", "PBS_CHK"}
	out := make([]store.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:    uint64(i),
				Time:   base.Add(time.Duration(i) * time.Minute),
				System: logrec.Liberty,
				Source: fmt.Sprintf("ln%d", i%13),
			},
			Category: cats[i%len(cats)],
			Kept:     i%5 != 4,
		})
	}
	return out
}

func TestCorrelationsEndpoint(t *testing.T) {
	all := correlateServeEntries(80)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			srv, c := newTestServer(t, l, all[:60], shard.Options{Store: store.Options{FlushEvery: 7}})
			checkCorrelationsDifferential(t, srv.URL, all[:60])

			// Later appends reach the miners through the observers too:
			// append more and re-check.
			if _, err := c.Append(all[60:]); err != nil {
				t.Fatal(err)
			}
			checkCorrelationsDifferential(t, srv.URL, all)

			// Neighborhood + threshold filters apply server-side.
			var filtered correlationsBody
			getJSON(t, srv.URL+"/api/correlations?node=GM_LANAI&min_support=1&min_confidence=0.1", &filtered)
			full := correlate.MineEntries(correlate.Config{}, all)
			wantEdges := correlate.FilterEdges(full.Edges, 1, 0.1, "GM_LANAI")
			ge, _ := json.Marshal(filtered.Edges)
			we, _ := json.Marshal(wantEdges)
			if string(ge) != string(we) {
				t.Fatalf("filtered edges diverge\nserved: %s\nbatch:  %s", ge, we)
			}
		})
	}
}

// TestPredictEndpointMatchesBatch: /api/predict is a pure function of
// the merged columns, so on every layout the served report must equal
// the batch evaluation (correlate.PredictStore) over one in-process
// store holding the same entries.
func TestPredictEndpointMatchesBatch(t *testing.T) {
	entries := correlateServeEntries(90)

	st, err := store.Create(t.TempDir(), logrec.Liberty, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	rep, err := correlate.PredictStore(st, correlate.Config{}, correlate.PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 || len(rep.Scoreboard) == 0 {
		t.Fatalf("batch predict report is empty: %+v", rep)
	}
	// The wire form of a report that fits under the limit.
	raw, _ := json.Marshal(map[string]any{
		"as_of": rep.AsOf, "horizon_ns": rep.Horizon, "events": rep.Events, "categories": rep.Categories,
		"scoreboard_count": len(rep.Scoreboard), "scoreboard": rep.Scoreboard,
		"warning_count": len(rep.Warnings), "warnings": rep.Warnings, "truncated": false,
	})
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			srv, _ := newTestServer(t, l, entries, shard.Options{Store: store.Options{FlushEvery: 1000}})
			if got := getPredictSettled(t, srv.URL); !reflect.DeepEqual(got, want) {
				t.Fatalf("served predict diverges from the batch evaluation\nserved: %v\nbatch:  %v", got, want)
			}
		})
	}
}

// getPredictSettled polls /api/predict until settled, then returns the
// body with the settled flag dropped (a batch evaluation has none).
func getPredictSettled(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var body map[string]any
		getJSON(t, baseURL+"/api/predict?limit=1000", &body)
		if body["settled"] == true {
			delete(body, "settled")
			return body
		}
		if time.Now().After(deadline) {
			t.Fatal("predict endpoint did not settle within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestListLimitValidation pins the response-bounding contract on the
// three list endpoints: default limit, hard max, and 400 on garbage.
func TestListLimitValidation(t *testing.T) {
	srv, _ := newTestServer(t, flat, nil, shard.Options{Store: store.Options{FlushEvery: 1000}})

	for _, path := range []string{"/api/correlations", "/api/predict", "/api/subscriptions"} {
		for _, bad := range []string{"0", "-1", "abc", "1001", "1.5", ""} {
			resp, err := http.Get(srv.URL + path + "?limit=" + bad)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if bad == "" {
				// Empty value means "absent": the default applies.
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s with empty limit: %d, want 200", path, resp.StatusCode)
				}
				continue
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("GET %s with limit=%s: %d, want 400", path, bad, resp.StatusCode)
			}
		}
		// The cap itself is legal.
		resp, err := http.Get(srv.URL + path + "?limit=1000")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with limit=1000: %d, want 200", path, resp.StatusCode)
		}
	}

	// Bad correlation filters 400 too.
	for _, q := range []string{"min_support=-1", "min_support=x", "min_confidence=1.5", "min_confidence=x"} {
		resp, err := http.Get(srv.URL + "/api/correlations?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /api/correlations?%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSubscriptionsLimitTruncates: the listing clips at limit and says
// so, while count keeps the full population.
func TestSubscriptionsLimitTruncates(t *testing.T) {
	srv, _ := newTestServer(t, flat, nil, shard.Options{Store: store.Options{FlushEvery: 1000}})

	for i := 0; i < 3; i++ {
		postSubscribe(t, srv.URL, subscribeRequest{Threshold: 100 + i})
	}
	var list struct {
		Count     int       `json:"count"`
		Subs      []subJSON `json:"subscriptions"`
		Truncated bool      `json:"truncated"`
	}
	getJSON(t, srv.URL+"/api/subscriptions?limit=2", &list)
	if list.Count != 3 || len(list.Subs) != 2 || !list.Truncated {
		t.Fatalf("truncated listing: count=%d len=%d truncated=%t", list.Count, len(list.Subs), list.Truncated)
	}
	getJSON(t, srv.URL+"/api/subscriptions", &list)
	if list.Count != 3 || len(list.Subs) != 3 || list.Truncated {
		t.Fatalf("full listing: count=%d len=%d truncated=%t", list.Count, len(list.Subs), list.Truncated)
	}
}

// TestCorrelationsTruncation: a limit smaller than the graph clips both
// lists and flags it, without disturbing the counts.
func TestCorrelationsTruncation(t *testing.T) {
	srv, _ := newTestServer(t, flat, correlateServeEntries(60), shard.Options{Store: store.Options{FlushEvery: 1000}})

	full := getCorrelationsSettled(t, srv.URL)
	if full.EdgeCount < 2 {
		t.Fatalf("fixture too small: %d edges", full.EdgeCount)
	}
	var clipped correlationsBody
	getJSON(t, srv.URL+"/api/correlations?limit=1", &clipped)
	if len(clipped.Edges) != 1 || len(clipped.Nodes) != 1 || !clipped.Truncated {
		t.Fatalf("clipped response: %+v", clipped)
	}
	if clipped.EdgeCount != full.EdgeCount || clipped.NodeCount != full.NodeCount {
		t.Fatalf("clipping disturbed counts: %+v vs %+v", clipped, full)
	}
	if !reflect.DeepEqual(clipped.Edges[0], full.Edges[0]) {
		t.Fatalf("clipping reordered edges: %+v vs %+v", clipped.Edges[0], full.Edges[0])
	}
}
