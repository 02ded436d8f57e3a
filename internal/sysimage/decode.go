package sysimage

import (
	"math"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/intern"
)

// The native decoder reads the Image schema straight from the caller's
// bytes: no reflection and no separate validity pass. It accepts exactly
// the forms a JSON encoder emits for an Image — exact-case keys in any
// order, any whitespace, every string escape, and null for slices, maps
// and members — and declines everything else (unknown, case-folded or
// repeated keys, null scalars or map entries, fractions, exponents,
// out-of-range numbers, invalid UTF-8, lone surrogates, syntax errors).
// LoadJSON hands a declined input to decodeOracle, so what is accepted,
// and every error message, stays that of encoding/json.
//
// No-retain contract: every string the decoder keeps is either interned
// or copied, so the input buffer may be recycled as soon as it returns.

// Object keys per struct, in field order; a test pins them to the json tags.
var (
	imageKeys      = []string{"id", "configFiles", "files", "users", "groups", "services", "env", "hw", "os"}
	configFileKeys = []string{"app", "path", "content"}
	fileMetaKeys   = []string{"path", "kind", "owner", "group", "mode", "size", "target"}
	userKeys       = []string{"name", "uid", "gid", "home", "shell", "isAdmin"}
	groupKeys      = []string{"name", "gid", "members"}
	serviceKeys    = []string{"name", "port", "protocol"}
	hardwareKeys   = []string{"present", "cpuCores", "cpuThreads", "cpuFreqMHz", "memBytes", "diskBytes"}
	osInfoKeys     = []string{"distName", "version", "seLinux", "appArmor", "fsType", "hostName", "ipAddress"}
)

type decoder struct {
	data []byte
	pos  int
	bad  bool   // sticky: the input is declined
	esc  []byte // unescaped string scratch, reused across strings
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decodeNative decodes data into a fresh image, or reports false when the
// input is one the oracle must decide.
func decodeNative(data []byte) (*Image, bool) {
	d := decoders.Get().(*decoder)
	d.data, d.pos, d.bad = data, 0, false
	im := new(Image)
	d.image(im)
	d.peek()
	ok := !d.bad && d.pos == len(data)
	d.data = nil
	decoders.Put(d)
	if !ok {
		return nil, false
	}
	im.initMaps()
	return im, true
}

func (d *decoder) image(im *Image) {
	d.object(imageKeys, func(key string) {
		switch key {
		case "id":
			im.ID = d.text("")
		case "configFiles":
			im.ConfigFiles = list(d, d.configFile)
		case "files":
			if !d.null() {
				im.Files = make(map[string]*FileMeta)
				d.entries(func(k string) { im.Files[k] = d.fileMeta(k) })
			}
		case "users":
			if !d.null() {
				im.Users = make(map[string]*User)
				d.entries(func(k string) { im.Users[k] = d.user(k) })
			}
		case "groups":
			if !d.null() {
				im.Groups = make(map[string]*Group)
				d.entries(func(k string) { im.Groups[k] = d.group(k) })
			}
		case "services":
			im.Services = list(d, d.service)
		case "env":
			if !d.null() {
				im.Env = make(map[string]string)
				d.entries(func(k string) { im.Env[k] = d.text("") })
			}
		case "hw":
			d.hardware(&im.HW)
		case "os":
			d.osInfo(&im.OS)
		}
	})
}

func (d *decoder) configFile(c *ConfigFile) {
	d.object(configFileKeys, func(key string) {
		switch key {
		case "app":
			c.App = d.interned()
		case "path":
			c.Path = d.interned()
		case "content":
			c.Content = d.text("")
		}
	})
}

// fileMeta decodes the entry under files[key]; a path equal to its key
// shares the key's string.
func (d *decoder) fileMeta(key string) *FileMeta {
	fm := new(FileMeta)
	d.object(fileMetaKeys, func(k string) {
		switch k {
		case "path":
			fm.Path = d.text(key)
		case "kind":
			fm.Kind = FileKind(d.intField())
		case "owner":
			fm.Owner = d.interned()
		case "group":
			fm.Group = d.interned()
		case "mode":
			fm.Mode = uint32(d.integer(0, math.MaxUint32))
		case "size":
			fm.Size = d.integer(math.MinInt64, math.MaxInt64)
		case "target":
			fm.Target = d.interned()
		}
	})
	return fm
}

func (d *decoder) user(key string) *User {
	u := new(User)
	d.object(userKeys, func(k string) {
		switch k {
		case "name":
			u.Name = d.text(key)
		case "uid":
			u.UID = d.intField()
		case "gid":
			u.GID = d.intField()
		case "home":
			u.Home = d.interned()
		case "shell":
			u.Shell = d.interned()
		case "isAdmin":
			u.IsAdmin = d.boolean()
		}
	})
	return u
}

func (d *decoder) group(key string) *Group {
	g := new(Group)
	d.object(groupKeys, func(k string) {
		switch k {
		case "name":
			g.Name = d.text(key)
		case "gid":
			g.GID = d.intField()
		case "members":
			g.Members = list(d, func(m *string) { *m = d.text("") })
		}
	})
	return g
}

func (d *decoder) service(s *Service) {
	d.object(serviceKeys, func(key string) {
		switch key {
		case "name":
			s.Name = d.interned()
		case "port":
			s.Port = d.intField()
		case "protocol":
			s.Protocol = d.interned()
		}
	})
}

func (d *decoder) hardware(hw *Hardware) {
	d.object(hardwareKeys, func(key string) {
		switch key {
		case "present":
			hw.Present = d.boolean()
		case "cpuCores":
			hw.CPUCores = d.intField()
		case "cpuThreads":
			hw.CPUThreads = d.intField()
		case "cpuFreqMHz":
			hw.CPUFreqMHz = d.intField()
		case "memBytes":
			hw.MemBytes = d.integer(math.MinInt64, math.MaxInt64)
		case "diskBytes":
			hw.DiskBytes = d.integer(math.MinInt64, math.MaxInt64)
		}
	})
}

func (d *decoder) osInfo(o *OSInfo) {
	d.object(osInfoKeys, func(key string) {
		switch key {
		case "distName":
			o.DistName = d.interned()
		case "version":
			o.Version = d.interned()
		case "seLinux":
			o.SELinux = d.interned()
		case "appArmor":
			o.AppArmor = d.boolean()
		case "fsType":
			o.FSType = d.interned()
		case "hostName":
			o.HostName = d.text("")
		case "ipAddress":
			o.IPAddress = d.text("")
		}
	})
}

// object decodes a JSON object whose keys must come from keys, passing
// each key's canonical spelling to field to decode its value. An unknown
// or repeated key declines: encoding/json would case-fold, skip or merge.
func (d *decoder) object(keys []string, field func(key string)) {
	var seen uint32
	d.members(func(k []byte) {
		for i, name := range keys {
			if string(k) == name {
				if seen&(1<<i) != 0 {
					break
				}
				seen |= 1 << i
				field(name)
				return
			}
		}
		d.bad = true
	})
}

// entries decodes a JSON object into a map: entry receives each key as a
// fresh string and decodes its value. A repeated key replaces the earlier
// entry, as in encoding/json.
func (d *decoder) entries(entry func(key string)) {
	d.members(func(k []byte) { entry(string(k)) })
}

// members walks one JSON object, handing member each raw key (valid only
// until the value is decoded) with the reader positioned at its value.
func (d *decoder) members(member func(key []byte)) {
	d.expect('{')
	for i := 0; d.more('}', i); i++ {
		k := d.str()
		d.expect(':')
		if d.bad {
			return
		}
		member(k)
	}
}

// list decodes a JSON array into a slice, or null into nil.
func list[T any](d *decoder, elem func(*T)) []T {
	if d.null() {
		return nil
	}
	out := []T{}
	d.expect('[')
	for i := 0; d.more(']', i); i++ {
		out = append(out, *new(T))
		elem(&out[i])
	}
	return out
}

// more reports whether the object or array being walked has an i-th
// member, consuming the separator before it or the closing bracket.
func (d *decoder) more(closing byte, i int) bool {
	if d.bad {
		return false
	}
	c := d.peek()
	if c == closing {
		d.pos++
		return false
	}
	if i > 0 {
		if c != ',' {
			d.bad = true
			return false
		}
		d.pos++
	}
	return true
}

// peek skips whitespace and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	data, i := d.data, d.pos
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.pos = i
			return c
		}
	}
	d.pos = i
	return 0
}

func (d *decoder) expect(c byte) {
	if d.peek() != c {
		d.bad = true
		return
	}
	d.pos++
}

// literal consumes word if it comes next.
func (d *decoder) literal(word string) bool {
	d.peek()
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

func (d *decoder) null() bool { return d.literal("null") }

func (d *decoder) boolean() bool {
	switch {
	case d.literal("true"):
		return true
	case d.literal("false"):
		return false
	}
	d.bad = true
	return false
}

func (d *decoder) intField() int { return int(d.integer(math.MinInt, math.MaxInt)) }

// integer decodes a JSON integer in [lo, hi]. Fractions and exponents
// leave a byte the caller's next token rejects; a minus sign declines
// when lo is 0, since encoding/json refuses "-0" for unsigned fields.
func (d *decoder) integer(lo, hi int64) int64 {
	neg := d.peek() == '-'
	if neg {
		d.pos++
	}
	start := d.pos
	var u uint64
	for ; d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9'; d.pos++ {
		if u > math.MaxInt64/10 { // past every field's range
			d.bad = true
			return 0
		}
		u = u*10 + uint64(d.data[d.pos]-'0')
	}
	n := d.pos - start
	switch {
	case n == 0 || n > 1 && d.data[start] == '0':
		d.bad = true
	case neg && (lo == 0 || u > uint64(-lo)):
		d.bad = true
	case neg:
		return -int64(u)
	case u > uint64(hi):
		d.bad = true
	default:
		return int64(u)
	}
	return 0
}

// text returns the next string as a fresh copy, or as same when equal to
// it (a map key repeated in its value's name field).
func (d *decoder) text(same string) string {
	b := d.str()
	if string(b) == same {
		return same
	}
	return string(b)
}

// interned returns the next string's canonical copy: a small-vocabulary
// field resolved without allocating when the interner already holds it.
func (d *decoder) interned() string { return intern.Bytes(d.str()) }

// plain marks the bytes a string run copies through: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str decodes the next JSON string. The bytes alias the input or the
// escape scratch and are valid only until the next str call.
func (d *decoder) str() []byte {
	if d.peek() != '"' {
		d.bad = true
		return nil
	}
	data, i := d.data, d.pos+1
	run, ascii := i, true
	out, escaped := d.esc[:0], false
	for i < len(data) {
		if plain[data[i]] {
			i++
			continue
		}
		switch c := data[i]; {
		case c >= utf8.RuneSelf:
			ascii = false
			i++
		case c == '"':
			s := data[run:i]
			if escaped {
				out = append(out, s...)
				d.esc, s = out, out
			}
			d.pos = i + 1
			if !ascii && !utf8.Valid(s) {
				d.bad = true
			}
			return s
		case c == '\\':
			d.pos = i
			if out = d.escape(append(out, data[run:i]...)); d.bad {
				return nil
			}
			i, run, escaped = d.pos, d.pos, true
		default: // a control character
			i = len(data)
		}
	}
	d.bad = true
	return nil
}

// unescaped maps each single-character escape to the byte it stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// escape appends the escape sequence at d.pos (a backslash) to out.
func (d *decoder) escape(out []byte) []byte {
	d.pos++
	if d.pos == len(d.data) {
		d.bad = true
		return out
	}
	c := d.data[d.pos]
	d.pos++
	if b := unescaped[c]; b != 0 {
		return append(out, b)
	}
	if c == 'u' {
		r := d.hex4()
		if utf16.IsSurrogate(r) {
			// Only a high-low pair decodes; encoding/json substitutes
			// U+FFFD for a lone half, which the oracle reproduces.
			if len(d.data)-d.pos < 2 || d.data[d.pos] != '\\' || d.data[d.pos+1] != 'u' {
				d.bad = true
				return out
			}
			d.pos += 2
			if r = utf16.DecodeRune(r, d.hex4()); r == utf8.RuneError {
				d.bad = true
				return out
			}
		}
		return utf8.AppendRune(out, r)
	}
	d.bad = true
	return out
}

func (d *decoder) hex4() rune {
	if len(d.data)-d.pos < 4 {
		d.bad = true
		return 0
	}
	var r rune
	for _, c := range d.data[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.bad = true
			return 0
		}
		r = r<<4 | rune(c)
	}
	d.pos += 4
	return r
}
