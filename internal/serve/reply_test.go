package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/detect"
	"repro/internal/rules"
)

// scanResponse is the /v1/scan reply's shape as encoding/json renders it:
// the oracle writeScanReply's bytes are held to.
type scanResponse struct {
	RequestID     string          `json:"requestId"`
	App           string          `json:"app"`
	PlanVersion   string          `json:"planVersion"`
	ElapsedMicros int64           `json:"elapsedMicros"`
	Findings      int             `json:"findings"`
	Report        json.RawMessage `json:"report"`
}

// encodedReply is the reply json.Encoder gives for the same fields, with
// the report embedded as its AppendJSON rendering.
func encodedReply(t testing.TB, id, app, version string, elapsed int64, findings int, rep *detect.Report) []byte {
	t.Helper()
	var raw, out bytes.Buffer
	if err := rep.AppendJSON(&raw); err != nil {
		t.Fatal(err)
	}
	err := json.NewEncoder(&out).Encode(scanResponse{
		RequestID: id, App: app, PlanVersion: version,
		ElapsedMicros: elapsed, Findings: findings, Report: raw.Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzScanReply holds the one-pass reply writer to encoding/json byte for
// byte, over arbitrary identity strings (HTML characters, U+2028/2029,
// control bytes, invalid UTF-8), numbers and report contents.
func FuzzScanReply(f *testing.F) {
	f.Add("req-1", "mysql", "v1", int64(125), 2, "img-1", "mysql:mysqld/port", "3307", "type violated", 60.5, true)
	f.Add("<a&b>", "app\u2028x", "v\u2029", int64(-1), 0, "", "", "", "", 0.0, false)
	f.Add("\x00\x1f\"\\\b\f\n\r\t\x7f", "\xff\xfe", "é\xc3", int64(math.MaxInt64), -3, "sys<&>", "a\u2028", "\x01", "m\xff", 1e21, true)
	f.Fuzz(func(t *testing.T, id, app, version string, elapsed int64, findings int,
		systemID, attr, value, message string, score float64, withRule bool) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return // not representable in JSON: AppendJSON errors
		}
		rep := &detect.Report{SystemID: systemID}
		if attr != "" || message != "" {
			w := &detect.Warning{Rank: 1, Kind: detect.KindCorrelation, Attr: attr, Value: value, Message: message, Score: score}
			if withRule {
				w.Rule = &rules.Rule{Template: "owner", AttrA: attr, AttrB: value, Support: findings, Confidence: score}
			}
			rep.Warnings = []*detect.Warning{w}
		}
		var got bytes.Buffer
		if err := writeScanReply(&got, id, app, version, elapsed, findings, rep); err != nil {
			t.Fatal(err)
		}
		if want := encodedReply(t, id, app, version, elapsed, findings, rep); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("reply bytes differ\n got %q\nwant %q", got.Bytes(), want)
		}
	})
}

// TestAppendJSONStringMatchesEncoding covers every byte value and the
// multi-byte cases encoding/json treats specially.
func TestAppendJSONStringMatchesEncoding(t *testing.T) {
	cases := []string{"", "plain", "\u2028\u2029", "\xff", "\xe2\x80", "é", "😀", "<>&", "\x7f"}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}
