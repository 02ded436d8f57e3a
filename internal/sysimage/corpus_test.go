package sysimage_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sysimage"
)

// encodings returns an image's indented JSON (the on-disk form) and its
// compact JSON (the NDJSON batch-body form).
func encodings(t testing.TB, im *sysimage.Image) [][]byte {
	t.Helper()
	indented, err := im.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(im)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{indented, compact}
}

func corpusImages(t testing.TB) []*sysimage.Image {
	t.Helper()
	ec2, err := corpus.EC2Targets(1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := corpus.PrivateCloudTargets(1)
	if err != nil {
		t.Fatal(err)
	}
	images := append(ec2.Images, pc.Images...)
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		training, err := corpus.Training(app, 30, 1)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, training...)
	}
	return images
}

// TestNativeDecodesCorpora: every corpus image, in both encodings, takes
// the native path and decodes to the oracle's image.
func TestNativeDecodesCorpora(t *testing.T) {
	for _, im := range corpusImages(t) {
		for _, data := range encodings(t, im) {
			got, ok := sysimage.DecodeNative(data)
			if !ok {
				t.Fatalf("%s: native decoder declined a corpus image", im.ID)
			}
			want, err := sysimage.DecodeOracle(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: native image differs from the oracle's", im.ID)
			}
		}
	}
}

// FuzzLoadJSON differentially tests the native decoder against the
// encoding/json oracle: whenever the native decoder accepts, the oracle
// accepts the same bytes and yields an identical image.
func FuzzLoadJSON(f *testing.F) {
	pc, err := corpus.PrivateCloudTargets(1)
	if err != nil {
		f.Fatal(err)
	}
	training, err := corpus.Training("mysql", 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, im := range append(training, pc.Images[:3]...) {
		for _, data := range encodings(f, im) {
			f.Add(data)
		}
	}
	for _, c := range sysimage.NativeCases {
		f.Add([]byte(c.Doc))
	}
	for _, c := range sysimage.DeclineCases {
		f.Add([]byte(c.Doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := sysimage.DecodeNative(data)
		// The oracle runs on every input, so a panic on the fallback path
		// surfaces too.
		want, err := sysimage.DecodeOracle(data)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("native decoder accepted what the oracle rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("native image %+v differs from the oracle's %+v", got, want)
		}
	})
}

// BenchmarkLoadJSON decodes one private-cloud image through the oracle and
// through LoadJSON, the production path.
func BenchmarkLoadJSON(b *testing.B) {
	pc, err := corpus.PrivateCloudTargets(1)
	if err != nil {
		b.Fatal(err)
	}
	data, err := pc.Images[0].MarshalJSONIndent()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*sysimage.Image, error)
	}{
		{"oracle", sysimage.DecodeOracle},
		{"production", sysimage.LoadJSON},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
