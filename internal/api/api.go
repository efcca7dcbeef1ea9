// Package api defines the wire schema every treegion HTTP surface shares.
// The daemon (treegiond) and the shard router (treegion-router) both answer
// failed requests with the structured body defined here, so a client parses
// one error shape no matter which tier produced it — and the two binaries
// cannot drift apart, because they marshal the same struct.
package api

import (
	"encoding/json"
	"net/http"
)

// Error is the body of every non-2xx reply:
//
//	{"error": {"code": "...", "message": "...", ...}}
//
// Code is a stable machine-readable identifier (bad_json, bad_ir,
// verify_failed, queue_full, no_replica, ...); Message is human-readable
// detail. verify_failed errors also carry the distinct violated rule IDs
// and the rendered diagnostics.
type Error struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the payload inside the "error" envelope.
type ErrorDetail struct {
	Code        string   `json:"code"`
	Message     string   `json:"message"`
	Rules       []string `json:"rules,omitempty"`
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// WriteError writes the structured error body with the given HTTP status.
func WriteError(w http.ResponseWriter, status int, d ErrorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(Error{Error: d})
}

// StoreStats is the GET /v1/store/stats response: the persistent artifact
// store's counters plus the payload schema this daemon reads and writes.
// Lookups hitting an entry with any other schema version (including the
// retired tgart1 container) count under schema_skew and read as misses.
type StoreStats struct {
	// Enabled is false when the daemon runs without -store-dir; all other
	// fields are zero then.
	Enabled bool `json:"enabled"`
	// SchemaVersion is the tgart2 payload schema this binary speaks.
	SchemaVersion int `json:"schema_version"`

	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Puts       int64 `json:"puts"`
	Evictions  int64 `json:"evictions"`
	Corrupt    int64 `json:"corrupt"`
	SchemaSkew int64 `json:"schema_skew"`

	WriteErrors  int64 `json:"write_errors"`
	EncodeErrors int64 `json:"encode_errors"`

	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget_bytes"`
}
