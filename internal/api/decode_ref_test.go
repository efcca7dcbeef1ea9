package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The reference decoder: the encoding/json decode that the one-pass
// decoder (decode.go) replaced, kept unchanged as its test oracle.
// TestDecodeMatchesReference and FuzzDecodeBody hold the two to one
// outcome for every body.

// decodeStrict decodes a body holding exactly one JSON value into v. A
// field v does not declare is a 400 unknown_field listing the valid ones;
// malformed JSON, or any data after the first value, is a 400 bad_json.
func decodeStrict(data []byte, v any, valid []string) *Failure {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = fmt.Errorf("data after the JSON value at offset %d", dec.InputOffset())
		}
	}
	if err == nil {
		return nil
	}
	if f, ok := unknownField(err); ok {
		return Fail(http.StatusBadRequest, "unknown_field",
			fmt.Errorf("unknown config field %q (valid fields: %s)", f, strings.Join(valid, ", ")))
	}
	return Fail(http.StatusBadRequest, "bad_json", fmt.Errorf("bad request body: %w", err))
}

// unknownField extracts the field name from the json package's
// DisallowUnknownFields error, which is only exposed as text.
func unknownField(err error) (string, bool) {
	const marker = `json: unknown field "`
	msg := err.Error()
	i := strings.Index(msg, marker)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j], true
	}
	return "", false
}
