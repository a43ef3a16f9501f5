package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/schedule"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// TestTablesStreamMatchesLocal streams the one simulation-free request
// (Table 2) and checks the frames are bit-identical to running the same
// request in process.
func TestTablesStreamMatchesLocal(t *testing.T) {
	var local []schedule.TableData
	req := experiments.Request{Table: 2, Opt: experiments.Tiny()}
	if err := req.Run(func(tb experiments.Table) { local = append(local, tb.Data()) }); err != nil {
		t.Fatal(err)
	}

	hs := newTestServer(t)
	client := &Client{BaseURL: hs.URL}
	var streamed []schedule.TableData
	sum, err := client.StreamTables(context.Background(), req, func(td schedule.TableData) error {
		streamed = append(streamed, td)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || sum.Request != "table2" || sum.Tables != len(local) {
		t.Fatalf("summary = %+v, want table2 with %d tables", sum, len(local))
	}
	lj, _ := json.Marshal(local)
	sj, _ := json.Marshal(streamed)
	if !bytes.Equal(lj, sj) {
		t.Fatalf("streamed tables != local tables\nstreamed: %s\nlocal: %s", sj, lj)
	}
}

// TestBadRequests covers the rejection paths: wrong method, undecodable
// body, invalid experiment selection, and options whose scaled machine
// sim.Config.Validate rejects (a simulation would panic on it).
func TestBadRequests(t *testing.T) {
	hs := newTestServer(t)

	get, err := http.Get(hs.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tables = %d, want 405", get.StatusCode)
	}

	for _, body := range []string{
		"not json",
		`{}`,
		`{"fig": 2, "options": {"MeasureInstr": 1}}`,
		`{"table": 7, "options": {"Scale": 3, "MeasureInstr": 1000}}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/tables", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/tables %q = %d, want 400", body, resp.StatusCode)
		}
	}
}
