package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stronghold/internal/serve"
	"stronghold/internal/serve/backend"
)

// TestOversizedModelRejected drives the real backend with a model far
// past the modelcfg ceilings. Admitted, this request would allocate in
// proportion to the model and kill the process with a fatal
// out-of-memory error, so it must be a client error, and the server
// must keep answering.
func TestOversizedModelRejected(t *testing.T) {
	ts := httptest.NewServer(serve.New(backend.Sim{}, serve.Options{}))
	defer ts.Close()
	send := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	if code, body := send(`{"model":{"size_billions":1e9}}`); code < 400 || code >= 500 {
		t.Fatalf("oversized model: status %d, want 4xx; body %s", code, body)
	}
	if code, body := send(`{"model":{"size_billions":4}}`); code != http.StatusOK {
		t.Fatalf("request after the oversized one: status %d, want 200; body %s", code, body)
	}
}
