package api

import (
	"encoding/hex"
	"testing"
)

// pinnedBatchKeys are the shard keys of a two-function /v1/compile-batch
// body under two configs, in hex. The router spreads batches by this key,
// so a change to it moves every batch to another replica and its warm
// cache.
var pinnedBatchKeys = []struct {
	fields, key string
}{
	{``, "c04dea49923403cfd893a91250a0a13bf39f2552e2d9c0648b207296c32c797f"},
	{`, "region": "tree-td", "inline": true, "verify": true`, "74030f2a7637e9bf268e292c47c9f3357fe032a3b1cc1e02837e9a2c8b3f8556"},
}

// TestBatchKeyPinned decodes each pinned batch body and checks its key.
func TestBatchKeyPinned(t *testing.T) {
	const functions = `{"functions": [{"ir": "func a\nbb0:\n  r1 = movi 7\n  ret\n"}, {"ir": "func b\nbb0:\n  r2 = movi 9\n  ret\n"}]`
	for _, tc := range pinnedBatchKeys {
		b, f := DecodeBatch([]byte(functions + tc.fields + "}"))
		if f != nil {
			t.Fatalf("{%s}: %v", tc.fields, f)
		}
		if k := b.Key(); hex.EncodeToString(k[:]) != tc.key {
			t.Errorf("{%s}: batch key %x, pinned %s", tc.fields, k, tc.key)
		}
	}
}
