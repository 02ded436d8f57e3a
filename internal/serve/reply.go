package serve

import (
	"bytes"
	"strconv"
	"unicode/utf8"

	"repro/internal/detect"
)

// writeScanReply renders the /v1/scan reply into buf in one pass:
//
//	{"requestId":...,"app":...,"planVersion":...,"elapsedMicros":...,"findings":...,"report":<report>}
//
// followed by a newline. The report is Report.AppendJSON's compact,
// HTML-escaped rendering written in place, so these are the bytes
// json.Encoder gave for the same fields with the report as a RawMessage,
// without re-validating and re-compacting the report.
func writeScanReply(buf *bytes.Buffer, id, app, version string, elapsedMicros int64, findings int, report *detect.Report) error {
	b := buf.AvailableBuffer()
	b = append(b, `{"requestId":`...)
	b = appendJSONString(b, id)
	b = append(b, `,"app":`...)
	b = appendJSONString(b, app)
	b = append(b, `,"planVersion":`...)
	b = appendJSONString(b, version)
	b = append(b, `,"elapsedMicros":`...)
	b = strconv.AppendInt(b, elapsedMicros, 10)
	b = append(b, `,"findings":`...)
	b = strconv.AppendInt(b, int64(findings), 10)
	b = append(b, `,"report":`...)
	buf.Write(b)
	if err := report.AppendJSON(buf); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1) // AppendJSON's trailing newline
	buf.WriteString("}\n")
	return nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// encodes a string with HTML escaping on: quotes, backslashes and control
// bytes escaped (\b \f \n \r \t short, the rest \u00XX), <, > and & as
// \u003c \u003e \u0026, U+2028 and U+2029 escaped, and each invalid UTF-8
// byte replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
