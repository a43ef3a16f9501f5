package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/experiments"
	"repro/internal/schedule"
)

// Client talks to a Server's /v1/tables endpoint. The zero value is
// unusable; set BaseURL ("http://host:port", no trailing slash needed).
type Client struct {
	// BaseURL locates the server.
	BaseURL string
}

// StreamTables posts an experiment request and invokes emit for each table
// frame as it arrives, returning the terminal summary. An error frame from
// the server, a non-OK status, or an emit error aborts the stream.
func (c *Client) StreamTables(ctx context.Context, req experiments.Request, emit func(schedule.TableData) error) (*StreamSummary, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal request: %w", err)
	}
	url := strings.TrimRight(c.BaseURL, "/") + "/v1/tables"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// No client timeout: a stream lasts as long as the experiment.
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", req.Name(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: %s: %s", req.Name(), readError(resp))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("serve: bad frame: %w", err)
		}
		switch {
		case f.Error != "":
			return nil, fmt.Errorf("serve: %s: %s", req.Name(), f.Error)
		case f.Done != nil:
			return f.Done, nil
		case f.Table != nil:
			if err := emit(*f.Table); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: %s: stream: %w", req.Name(), err)
	}
	return nil, fmt.Errorf("serve: %s: stream ended without a done frame (server died mid-request?)", req.Name())
}

// readError extracts the {"error": ...} payload of a failed response.
func readError(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, e.Error)
	}
	return resp.Status
}
