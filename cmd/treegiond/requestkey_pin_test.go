package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"treegion"
)

// pinnedRequestKeys are the request keys of Figure 1 under a table of
// bodies, in hex, as the daemon files them in its memory cache. A request
// key names a stored artifact, so a change to any of them orphans every
// artifact stored under the old one. The config fields are JSON text
// spliced after the "ir" field.
var pinnedRequestKeys = []struct {
	fields, key string
}{
	{``, "205eabbf1b7b6c35fbc9a6b36dde423f49a7c4c33b2bb01ee1febf309f912226"},
	{`"region": "bb"`, "2211de8d647c8a4a2836b58e6b6ce2e000e75ae8bdca8a525472e6bc3986a7c0"},
	{`"region": "slr"`, "2a2a9dd588170e255fe176b405ab2731a79a0e6ca90af453fdd27ca008f0b1a0"},
	{`"region": "tree"`, "205eabbf1b7b6c35fbc9a6b36dde423f49a7c4c33b2bb01ee1febf309f912226"},
	{`"region": "sb"`, "e26f4490d55e0f2cb9dfba90ab81e23953bf209361291975409d31434ea69281"},
	{`"region": "tree-td"`, "6639be91f2ec12f5e8bae170608f8552a380a21d864219dde4c257567d05d210"},
	{`"machine": "1U"`, "d23aa6b71e4fe5308ec0e6034e71959956e8a1314ca0dc7b4faae8f6b6f64cdb"},
	{`"machine": "4U"`, "205eabbf1b7b6c35fbc9a6b36dde423f49a7c4c33b2bb01ee1febf309f912226"},
	{`"machine": "8U"`, "cdb62b5c2ad2702bb04b19e028069cb9c8eec07f3846fcda65d18a40a25379a2"},
	{`"machine": "16U"`, "477af853d4baea7a27d8cd549915db817b7782010321be2cfd8039bcb8066f76"},
	{`"verify": false`, "205eabbf1b7b6c35fbc9a6b36dde423f49a7c4c33b2bb01ee1febf309f912226"},
	{`"verify": true`, "78fdb53864637468d7622a57f6d5df6a5fd593a5ce153df4fe076a4d5ddf02f3"},
	{`"seed": 7`, "4a5866f2c0f94583e1ea8d85d0fe9f524d7a1134bb944999aea8d26d7cae870a"},
	{`"trips": 50`, "3b72d319b1ad3a041485e9103369d46c457edbdc1f7a4e4be3e400f5b89a8453"},
	{`"region": "tree-td", "expansion_limit": 3, "verify": true`, "be44c990f86f5a0088a59933dda745b7263f017010901b75687043cbb1e21b8b"},
	{`"rename": false`, "53283da2a645a2650fd1231e9b98dc406d067cfd9323df3b4d40462be3c5da94"},
	{`"ifconvert": true`, "00c2231d3e47a530278ce1d073289174401c62a7b34f573ab0bc31255b648dc0"},
	{`"heuristic": "depheight"`, "6ee9dd37c04f70f4f1754738821cf42f8a811d80c82d054f920fa7480f785fb8"},
}

// TestRequestKeyPinned posts each pinned body to a daemon and finds its
// compile in the memory cache under the pinned key.
func TestRequestKeyPinned(t *testing.T) {
	s, err := newServer(serverConfig{cacheBytes: 64 << 20, jobWorkers: 1, jobQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	ir, err := json.Marshal(fig1(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pinnedRequestKeys {
		body := `{"ir": ` + string(ir)
		if tc.fields != "" {
			body += ", " + tc.fields
		}
		body += "}"
		if resp, _ := postCompile(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("{%s}: status %d", tc.fields, resp.StatusCode)
		}
		raw, err := hex.DecodeString(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		var k treegion.CacheKey
		copy(k[:], raw)
		if _, ok := s.cache.Get(k); !ok {
			t.Errorf("{%s}: no cache entry under the pinned request key %s", tc.fields, tc.key)
		}
	}
}
