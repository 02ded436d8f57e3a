package sysimage

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// nativeCases are documents the native decoder must decode itself: every
// form an encoder may emit for an Image beyond what MarshalJSONIndent does.
var nativeCases = []struct{ Name, Doc string }{
	{"keys in any order", `{"os":{"fsType":"ext4","distName":"x"},"id":"a","hw":{"diskBytes":1,"present":true}}`},
	{"whitespace", " \t\r\n{ \"id\" :\n\"a\" ,\"env\" : { } } \n"},
	{"escapes", `{"id":"q\"b\\s\/b\bf\fn\nr\rt\tu\u00e9\u003C\u0000"}`},
	{"surrogate pair", `{"id":"\ud83d\uDE00","env":{"\uD834\udd1e":"clef"}}`},
	{"escaped key", `{"\u0069d":"a"}`},
	{"raw UTF-8", `{"id":"é😀","os":{"hostName":"ħost"}}`},
	{"null slices and maps", `{"configFiles":null,"files":null,"users":null,"groups":null,"services":null,"env":null}`},
	{"empty slices and maps", `{"configFiles":[],"files":{},"users":{},"groups":{},"services":[],"env":{}}`},
	{"members", `{"groups":{"a":{"members":null},"b":{"members":[]},"c":{"name":"c","members":["x","y"]}}}`},
	{"repeated map key", `{"env":{"k":"1","k":"2"},"files":{"/x":{"mode":1},"/x":{"size":2}}}`},
	{"name differs from key", `{"users":{"u":{"name":"v","uid":-7,"isAdmin":false}},"files":{"/x":{"path":"/y","target":"/z"}}}`},
	{"integer bounds", `{"hw":{"memBytes":-9223372036854775808,"diskBytes":9223372036854775807,"cpuCores":-0},"files":{"/x":{"mode":4294967295}}}`},
	{"empty object", `{}`},
}

// declineCases are documents the native decoder must leave to the oracle,
// at least one per class of input it does not decode itself.
var declineCases = []struct{ Name, Doc string }{
	{"unknown key", `{"id":"a","extra":1}`},
	{"case-folded key", `{"ID":"a"}`},
	{"repeated key", `{"id":"a","id":"b"}`},
	{"repeated struct key", `{"hw":{"cpuCores":1},"hw":{"memBytes":2}}`},
	{"repeated map field", `{"files":{"/a":{}},"files":{"/b":{}}}`},
	{"null scalar", `{"id":null}`},
	{"null struct", `{"hw":null}`},
	{"null slice element", `{"services":[null]}`},
	{"null member", `{"groups":{"g":{"members":["a",null]}}}`},
	{"null env value", `{"env":{"k":null}}`},
	{"null files entry", `{"files":{"/x":null}}`},
	{"null users entry", `{"users":{"u":null}}`},
	{"null groups entry", `{"groups":{"g":null}}`},
	{"fraction", `{"hw":{"cpuCores":1.5}}`},
	{"integral fraction", `{"hw":{"cpuCores":1.0}}`},
	{"exponent", `{"hw":{"memBytes":1e9}}`},
	{"int64 out of range", `{"hw":{"memBytes":9223372036854775808}}`},
	{"int64 far out of range", `{"hw":{"memBytes":-123456789012345678901234567890}}`},
	{"uint32 out of range", `{"files":{"/x":{"mode":4294967296}}}`},
	{"negative uint32", `{"files":{"/x":{"mode":-1}}}`},
	{"negative zero uint32", `{"files":{"/x":{"mode":-0}}}`},
	{"leading zero", `{"hw":{"cpuCores":01}}`},
	{"string for number", `{"hw":{"cpuCores":"1"}}`},
	{"number for bool", `{"hw":{"present":1}}`},
	{"invalid UTF-8", "{\"id\":\"a\xffb\"}"},
	{"invalid UTF-8 key", "{\"env\":{\"\xed\xa0\x80\":\"v\"}}"},
	{"lone high surrogate", `{"id":"\ud800"}`},
	{"lone low surrogate", `{"id":"\udc00x"}`},
	{"high surrogate then non-surrogate", `{"id":"\ud800A"}`},
	{"bad escape", `{"id":"\x"}`},
	{"short unicode escape", `{"id":"\u12"}`},
	{"control character", "{\"id\":\"a\tb\"}"},
	{"trailing comma", `{"id":"a",}`},
	{"missing comma", `{"id":"a" "configFiles":null}`},
	{"trailing garbage", `{"id":"a"} x`},
	{"truncated", `{"id":"a"`},
	{"empty", ``},
	{"top-level array", `[]`},
	{"top-level null", `null`},
	{"wrong container", `{"files":[]}`},
}

// TestDecoderKeysMatchTags pins each key table to its struct's json tags,
// so a schema change cannot leave the native decoder on a stale spelling.
func TestDecoderKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{Image{}, imageKeys}, {ConfigFile{}, configFileKeys}, {FileMeta{}, fileMetaKeys},
		{User{}, userKeys}, {Group{}, groupKeys}, {Service{}, serviceKeys},
		{Hardware{}, hardwareKeys}, {OSInfo{}, osInfoKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%s keys = %v, json tags = %v", typ.Name(), c.keys, tags)
		}
	}
}

func TestNativeForms(t *testing.T) {
	for _, c := range nativeCases {
		got, ok := decodeNative([]byte(c.Doc))
		if !ok {
			t.Errorf("%s: native decoder declined", c.Name)
			continue
		}
		want, err := decodeOracle([]byte(c.Doc))
		if err != nil {
			t.Errorf("%s: oracle rejects: %v", c.Name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: native = %+v, oracle = %+v", c.Name, got, want)
		}
	}
}

// TestDeclinedInputsDecideAsOracle pins the decline contract: each case
// reaches the oracle, so LoadJSON's image or error text is the oracle's.
func TestDeclinedInputsDecideAsOracle(t *testing.T) {
	for _, c := range declineCases {
		if _, ok := decodeNative([]byte(c.Doc)); ok {
			t.Errorf("%s: native decoder accepted", c.Name)
		}
		got, gotErr := LoadJSON([]byte(c.Doc))
		want, wantErr := decodeOracle([]byte(c.Doc))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: LoadJSON error %v, oracle error %v", c.Name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LoadJSON image differs from the oracle's", c.Name)
		}
	}
}

// TestDecodeRetainsNoInput pins the no-retain contract both pooled readers
// rely on: scribbling over the recycled buffer after a decode must leave
// the decoded image intact.
func TestDecodeRetainsNoInput(t *testing.T) {
	im := testImage()
	im.ID = "retain-probe-image"
	im.SetConfig("mysql", "/etc/retain-probe.cnf", "[mysqld]\nuser=\"mysql\"\n")
	im.OS = OSInfo{DistName: "retain-probe-dist", HostName: "retain-probe-host"}
	im.Env["RETAIN_PROBE"] = "on"
	data, err := im.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadJSON(bytes.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = '#'
		}
	}

	var got *Image
	if err := WithPooledRead(bytes.NewReader(data), len(data), func(body []byte) error {
		var err error
		got, err = LoadJSON(body)
		scribble(body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("image decoded through WithPooledRead changed when its buffer was reused")
	}

	path := filepath.Join(t.TempDir(), "img.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err = LoadFile(path); err != nil {
		t.Fatal(err)
	}
	bp := readBufPool.Get().(*[]byte) // the buffer LoadFile just returned
	scribble((*bp)[:cap(*bp)])
	readBufPool.Put(bp)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("image decoded through LoadFile changed when its buffer was reused")
	}
}
