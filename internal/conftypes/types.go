// Package conftypes implements EnCore's semantic type system for
// configuration values (Table 4 of the paper).
//
// A configuration value is not an arbitrary string: it usually names an
// object in the executing environment — a file path, a user, a port, a
// size. The package infers a semantic type per configuration entry with a
// two-step process: a cheap *syntactic match* (regular-expression-style
// pattern) proposes candidate types, and a heavyweight *semantic
// verification* validates the proposal against the system image (does the
// path exist? is the user in /etc/passwd? is the port registered?). The
// first step prunes improbable types so inference stays fast; the second
// guarantees accuracy.
package conftypes

import (
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/sysimage"
)

// Type names a semantic configuration-value type.
type Type string

// The predefined types of Table 4, plus the auxiliary types used by
// augmented attributes (Enum, Permission).
const (
	TypeFilePath        Type = "FilePath"
	TypePartialFilePath Type = "PartialFilePath"
	TypeFileName        Type = "FileName"
	TypeUserName        Type = "UserName"
	TypeGroupName       Type = "GroupName"
	TypeIPAddress       Type = "IPAddress"
	TypePortNumber      Type = "PortNumber"
	TypeNumber          Type = "Number"
	TypeURL             Type = "URL"
	TypeMIMEType        Type = "MIMEType"
	TypeCharset         Type = "Charset"
	TypeLanguage        Type = "Language"
	TypeSize            Type = "Size"
	TypeBoolean         Type = "Boolean"
	TypeString          Type = "String"
	TypeEnum            Type = "Enum"
	TypePermission      Type = "Permission"
)

// IsTrivial reports whether the type carries no environment semantics
// (String/Number in the paper's Table 11 terminology).
func (t Type) IsTrivial() bool {
	return t == TypeString || t == TypeNumber || t == ""
}

// Def describes one inferable type: its name, the syntactic pattern, and an
// optional semantic verifier consulting the system image. A nil Verify
// means the type has no external reference (N/A rows in Table 4).
type Def struct {
	Name   Type
	Match  func(value string) bool
	Verify func(value string, img *sysimage.Image) bool
}

var (
	reIPv4       = regexp.MustCompile(`^\d{1,3}(\.\d{1,3}){3}$`)
	reIPv6       = regexp.MustCompile(`^[0-9a-fA-F:]+:[0-9a-fA-F:]*$`)
	reNumber     = regexp.MustCompile(`^-?[0-9]+(\.[0-9]+)?$`)
	reSize       = regexp.MustCompile(`^[0-9]+[KMGTkmgt][Bb]?$`)
	reURL        = regexp.MustCompile(`^[a-z][a-z0-9+.-]*://.+$`)
	rePartialFP  = regexp.MustCompile(`^[^/\s]+(/[^/\s]+)+$`)
	reFileName   = regexp.MustCompile(`^[\w.-]+\.[\w-]+$`)
	reIdent      = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_-]*$`)
	reMIME       = regexp.MustCompile(`^[\w-]+/[\w.+-]+$`)
	rePermission = regexp.MustCompile(`^0[0-7]{3}$`)
)

// isAbsPath is the FilePath pattern ^/[^\s]*$ as a byte scan: a leading
// slash and none of RE2's \s bytes (space, \t, \n, \f, \r). No byte of a
// multi-byte UTF-8 sequence is ASCII, so the scan decides every input
// exactly as the pattern does, at a fraction of a regexp match's cost on
// the per-image check path.
func isAbsPath(v string) bool {
	if v == "" || v[0] != '/' {
		return false
	}
	for i := 1; i < len(v); i++ {
		switch v[i] {
		case ' ', '\t', '\n', '\f', '\r':
			return false
		}
	}
	return true
}

// Atoi is strconv.Atoi reporting success as a bool; the number is
// meaningful only when ok. A string that is not an optional sign followed
// by one or more ASCII digits, which Atoi always rejects, is turned away
// before Atoi would allocate an error to say so: type inference asks
// this of every value it reaches.
func Atoi(v string) (int, bool) {
	digits := v
	if digits != "" && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(v)
	return n, err == nil
}

// ParseBool reads the boolean lexicon, ignoring case: on, true, yes, 1
// and enabled read true; off, false, no, 0, disabled and none read false;
// ok is false for any other value. The lexicon includes "0"/"1", which —
// exactly as in the paper — makes integer entries whose training values
// happen to all be 0 or 1 infer as Boolean (a measured false-type source
// in Table 11).
//
// Type inference, the check plan's Boolean checker and the bool-implies
// template all read values through it, so ASCII input is folded in a
// stack buffer instead of allocating a lowered copy. Other input goes
// through strings.ToLower first, whose Unicode mappings can land on the
// lexicon (U+0130 lowers to 'i'), so the answer is strings.ToLower's for
// every input.
func ParseBool(v string) (value, ok bool) {
	for i := 0; i < len(v); i++ {
		if v[i] >= utf8.RuneSelf {
			v = strings.ToLower(v)
			break
		}
	}
	var buf [len("disabled")]byte // the longest lexicon word
	if len(v) > len(buf) {
		return false, false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	switch string(buf[:len(v)]) {
	case "on", "true", "yes", "1", "enabled":
		return true, true
	case "off", "false", "no", "0", "disabled", "none":
		return false, true
	default:
		return false, false
	}
}

// IsBooleanWord reports whether the value belongs to the boolean lexicon.
func IsBooleanWord(v string) bool {
	_, ok := ParseBool(v)
	return ok
}

// mimeTopLevel is the IANA top-level media-type registry subset used for
// MIME verification.
var mimeTopLevel = map[string]bool{
	"application": true, "audio": true, "font": true, "image": true,
	"message": true, "model": true, "multipart": true, "text": true,
	"video": true,
}

// charsets is the IANA character-set subset used for Charset verification.
var charsets = map[string]bool{
	"utf-8": true, "utf8": true, "utf-16": true, "iso-8859-1": true,
	"iso-8859-15": true, "latin1": true, "latin2": true, "ascii": true,
	"us-ascii": true, "windows-1252": true, "koi8-r": true, "big5": true,
	"gbk": true, "gb2312": true, "euc-jp": true, "shift_jis": true,
}

// languages is the ISO 639-1 subset used for Language verification.
var languages = map[string]bool{
	"aa": true, "de": true, "en": true, "es": true, "fr": true, "it": true,
	"ja": true, "ko": true, "nl": true, "pl": true, "pt": true, "ru": true,
	"sv": true, "zh": true, "cs": true, "da": true, "el": true, "fi": true,
	"he": true, "hi": true, "tr": true,
}

// Predefined returns the predefined type definitions in inference priority
// order. Order matters: earlier definitions win when several patterns
// match, mirroring the crude-guess step of the paper.
func Predefined() []*Def {
	return []*Def{
		{
			Name:  TypeSize,
			Match: func(v string) bool { return reSize.MatchString(v) },
		},
		{
			Name:  TypeURL,
			Match: func(v string) bool { return reURL.MatchString(v) },
		},
		{
			Name: TypeIPAddress,
			Match: func(v string) bool {
				if reIPv4.MatchString(v) {
					for _, part := range strings.Split(v, ".") {
						if n, _ := strconv.Atoi(part); n > 255 {
							return false
						}
					}
					return true
				}
				return strings.Count(v, ":") >= 2 && reIPv6.MatchString(v)
			},
		},
		{
			Name:  TypeMIMEType,
			Match: func(v string) bool { return reMIME.MatchString(v) && !strings.HasPrefix(v, "/") },
			Verify: func(v string, _ *sysimage.Image) bool {
				top, _, _ := strings.Cut(v, "/")
				return mimeTopLevel[strings.ToLower(top)]
			},
		},
		{
			Name:  TypeFilePath,
			Match: isAbsPath,
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.Exists(v)
			},
		},
		{
			Name:  TypePartialFilePath,
			Match: func(v string) bool { return rePartialFP.MatchString(v) },
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.HasPathSuffix(v)
			},
		},
		{
			Name:  TypePermission,
			Match: func(v string) bool { return rePermission.MatchString(v) },
		},
		{
			Name: TypePortNumber,
			Match: func(v string) bool {
				n, ok := Atoi(v)
				return ok && n > 0 && n <= 65535
			},
			Verify: func(v string, img *sysimage.Image) bool {
				if img == nil {
					return false
				}
				n, _ := strconv.Atoi(v)
				return img.PortRegistered(n)
			},
		},
		{
			Name:  TypeNumber,
			Match: func(v string) bool { return reNumber.MatchString(v) },
		},
		{
			Name:  TypeFileName,
			Match: func(v string) bool { return reFileName.MatchString(v) && !strings.Contains(v, "/") },
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.HasPathSuffix(v)
			},
		},
		{
			Name:  TypeCharset,
			Match: func(v string) bool { return reIdent.MatchString(strings.ReplaceAll(v, ".", "")) },
			Verify: func(v string, _ *sysimage.Image) bool {
				return charsets[strings.ToLower(v)]
			},
		},
		{
			Name:  TypeLanguage,
			Match: func(v string) bool { return len(v) == 2 && reIdent.MatchString(v) },
			Verify: func(v string, _ *sysimage.Image) bool {
				return languages[strings.ToLower(v)]
			},
		},
		{
			Name:  TypeUserName,
			Match: func(v string) bool { return reIdent.MatchString(v) },
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.UserExists(v)
			},
		},
		{
			Name:  TypeGroupName,
			Match: func(v string) bool { return reIdent.MatchString(v) },
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.GroupExists(v)
			},
		},
	}
}
