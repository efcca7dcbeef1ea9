package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"treegion"
	"treegion/internal/api"
	"treegion/internal/router"
	"treegion/internal/telemetry"
)

// fig1Text is Figure 1's IR; the tables below splice it in for X.
var fig1Text = func() string {
	src, err := os.ReadFile("../../testdata/fig1.tir")
	if err != nil {
		panic(err)
	}
	return string(src)
}()

// withX replaces every X in body with Figure 1's IR as a JSON string.
func withX(body string) string {
	x, _ := json.Marshal(fig1Text)
	return strings.ReplaceAll(body, "X", string(x))
}

// equivalentBodies are classes of bodies that each ask for one compile:
// every body of a class has one key, which no other class shares.
var equivalentBodies = []struct {
	name, path string
	bodies     []string
}{
	{"headline", "/v1/compile", []string{
		`{"ir": X}`,
		`{"ir": X, "trips": 100}`,
		`{"ir": X, "trips": 0}`,
		`{"ir": X, "seed": 1}`,
		`{"ir": X, "region": "tree"}`,
		`{"ir": X, "machine": "4U", "heuristic": "globalweight"}`,
		`{"ir": X, "rename": true}`,
		`{"ir": X, "expansion_limit": 2}`,
		`{"ir": X, "trace": true}`,
		`{"trips": 100, "ir": X}`,
		`{"heuristic": "globalweight", "ir": X, "machine": "4U"}`,
		`{"expansion_limit": 2.0, "rename": true, "seed": 1, "ir": X, "schedules": true}`,
	}},
	{"tree-td", "/v1/compile", []string{
		`{"ir": X, "region": "tree-td"}`,
		`{"ir": X, "region": "tree-td", "dompar": true}`,
		`{"dompar": true, "region": "tree-td", "ir": X}`,
	}},
	{"batch", "/v1/compile-batch", []string{
		`{"functions": [{"ir": X}, {"ir": "func g\nbb0:\n  ret\n"}]}`,
		`{"seed": 1, "functions": [{"ir": X}, {"ir": "func g\nbb0:\n  ret\n"}], "trips": 0, "schedules": true}`,
	}},
}

// distinctBodies each ask for a compile no other body of either table
// asks for.
var distinctBodies = []struct{ path, body string }{
	{"/v1/compile", `{"ir": X, "seed": 2}`},
	{"/v1/compile", `{"ir": X, "trips": 50}`},
	{"/v1/compile", `{"ir": X, "region": "sb"}`},
	{"/v1/compile", `{"ir": X, "machine": "8U"}`},
	{"/v1/compile", `{"ir": X, "expansion_limit": 3}`},
	{"/v1/compile", `{"ir": X, "verify": true}`},
	{"/v1/compile", `{"ir": X, "region": "tree-td", "expansion_limit": 3}`},
	{"/v1/compile-batch", `{"functions": [{"ir": "func g\nbb0:\n  ret\n"}, {"ir": X}]}`},
	{"/v1/compile-batch", `{"functions": [{"ir": X}]}`},
	{"/v1/compile-batch", `{"functions": [{"ir": X}], "verify": true}`},
}

// TestEquivalentBodiesShareOneKey: the bodies of a class get one shard key
// at the router, and on a daemon the first compiles and the rest hit the
// request key it cached, which is that shard key. Bodies that differ in a
// compile input get distinct keys.
func TestEquivalentBodiesShareOneKey(t *testing.T) {
	s, ts := testServer(t)
	seen := map[router.ShardKey]string{}
	for _, class := range equivalentBodies {
		var key router.ShardKey
		for i, body := range class.bodies {
			body = withX(body)
			k, f := router.KeyForBody(class.path, []byte(body))
			if f != nil {
				t.Fatalf("%s body %d: %v", class.name, i, f)
			}
			if i == 0 {
				key = k
			} else if k != key {
				t.Errorf("%s body %d: shard key %x, want the class's %x", class.name, i, k, key)
			}
			if class.path != "/v1/compile" {
				continue
			}
			resp, cr := postCompile(t, ts, body)
			if resp.StatusCode != http.StatusOK || cr.Cached != (i > 0) {
				t.Errorf("%s body %d: status %d, cached %v", class.name, i, resp.StatusCode, cr.Cached)
			}
			if _, ok := s.cache.Get(treegion.CacheKey(k)); !ok {
				t.Errorf("%s body %d: the daemon cached no compile under the shard key", class.name, i)
			}
		}
		if other, dup := seen[key]; dup {
			t.Errorf("classes %s and %s share a key", other, class.name)
		}
		seen[key] = class.name
	}
	for _, d := range distinctBodies {
		k, f := router.KeyForBody(d.path, []byte(withX(d.body)))
		if f != nil {
			t.Fatalf("%s: %v", d.body, f)
		}
		if other, dup := seen[k]; dup {
			t.Errorf("%s shares a key with %s", d.body, other)
		}
		seen[k] = d.body
	}
}

// refusedBodies are bodies a daemon refuses before compiling anything.
var refusedBodies = []struct{ name, path, body string }{
	{"malformed JSON", "/v1/compile", `{"ir": X`},
	{"data after the value", "/v1/compile", `{"ir": X} x`},
	{"unknown field", "/v1/compile", `{"ir": X, "mahcine": "8U"}`},
	{"missing ir", "/v1/compile", `{"region": "tree"}`},
	{"region nope", "/v1/compile", `{"ir": X, "region": "nope"}`},
	{"machine 2U", "/v1/compile", `{"ir": X, "machine": "2U"}`},
	{"heuristic nope", "/v1/compile", `{"ir": X, "heuristic": "nope"}`},
	{"empty batch", "/v1/compile-batch", `{"functions": []}`},
	{"1,025 functions", "/v1/compile-batch",
		`{"functions": [` + strings.Repeat(`{"ir": "func f\nbb0:\n  ret\n"},`, 1024) + `{"ir": "func f\nbb0:\n  ret\n"}]}`},
	{"batch line without ir", "/v1/compile-batch", `{"functions": [{"ir": X}, {}]}`},
	{"batch machine 2U", "/v1/compile-batch", `{"functions": [{"ir": X}], "machine": "2U"}`},
	{"batch unknown field", "/v1/compile-batch", `{"functions": [{"ir": X}], "trace": true}`},
}

// TestRouterErrorParity: the router answers every refused body with the
// status, code and message a single daemon answers it with, and forwards
// none of them.
func TestRouterErrorParity(t *testing.T) {
	_, daemon := testServer(t)
	var hits atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			hits.Add(1)
		}
		io.WriteString(w, `{}`)
	}))
	t.Cleanup(replica.Close)
	rt, err := router.New(router.Config{Replicas: []string{replica.URL}, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	reply := func(base, path, body string) string {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		er := decodeError(t, resp)
		return fmt.Sprintf("%d %s: %s", resp.StatusCode, er.Error.Code, er.Error.Message)
	}
	for _, tc := range refusedBodies {
		body := withX(tc.body)
		want := reply(daemon.URL, tc.path, body)
		if !strings.HasPrefix(want, "400 ") {
			t.Errorf("%s: the daemon answered %s, want a 400", tc.name, want)
		}
		if got := reply(front.URL, tc.path, body); got != want {
			t.Errorf("%s: the router answered\n\t%s\nthe daemon\n\t%s", tc.name, got, want)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the router forwarded %d refused bodies", n)
	}
}

// FuzzKeyForBody: on either path, any bytes get a shard key or a 400 and
// never a panic, and an accepted body's normal form, marshalled back into a
// body, gets the same key.
func FuzzKeyForBody(f *testing.F) {
	for _, class := range equivalentBodies {
		for _, body := range class.bodies {
			f.Add(class.path == "/v1/compile-batch", []byte(withX(body)))
		}
	}
	for _, d := range distinctBodies {
		f.Add(d.path == "/v1/compile-batch", []byte(withX(d.body)))
	}
	for _, tc := range refusedBodies {
		f.Add(tc.path == "/v1/compile-batch", []byte(withX(tc.body)))
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/compile"
		if batch {
			path = "/v1/compile-batch"
		}
		key, fail := router.KeyForBody(path, body)
		if fail != nil {
			if fail.Status != http.StatusBadRequest || fail.Detail.Code == "" || fail.Detail.Message == "" {
				t.Fatalf("refused with %d %q: %q", fail.Status, fail.Detail.Code, fail.Detail.Message)
			}
			return
		}
		var normal any
		if batch {
			b, _ := api.DecodeBatch(body)
			normal = b.BatchBody
		} else {
			c, _ := api.DecodeCompile(body)
			normal = c.CompileBody
		}
		again, err := json.Marshal(normal)
		if err != nil {
			t.Fatal(err)
		}
		if k, fail := router.KeyForBody(path, again); fail != nil || k != key {
			t.Fatalf("the normal form %s keys %x (%v), the body %x", again, k, fail, key)
		}
	})
}
