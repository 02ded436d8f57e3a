package assemble

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/corpus"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// equivCorpus builds a mixed seed corpus: the three single-app populations
// plus LAMP images whose rows span several config files per image, and the
// name collisions of collisionImages.
func equivCorpus(t *testing.T) []*sysimage.Image {
	t.Helper()
	var images []*sysimage.Image
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		imgs, err := corpus.Training(app, 12, 42)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, imgs...)
	}
	lamp, err := corpus.LAMPTraining(8, 43)
	if err != nil {
		t.Fatal(err)
	}
	images = append(images, lamp...)
	return append(images, collisionImages()...)
}

// collisionImages are MySQL images with an entry "datadir.owner" whose
// name equals the FilePath owner augmentation of "datadir", so one column
// mixes entry and augmented values in stream order and is declared both
// ways. The entry comes before datadir in some images, after it in
// others, and is absent from one, so with equivAssembler's colliding
// augmenter the first and last declared type of a column differ by row.
func collisionImages() []*sysimage.Image {
	var out []*sysimage.Image
	for i, layout := range []string{
		"datadir.owner = mysql\ndatadir = /var/lib/mysql\n",
		"datadir = /var/lib/mysql\ndatadir.owner = root\n",
		"datadir = /data/mysql\n",
		"datadir.owner = root\ndatadir = /data/mysql\n",
	} {
		datadir := "/var/lib/mysql"
		if i >= 2 {
			datadir = "/data/mysql"
		}
		im := mysqlImage(fmt.Sprintf("collide-%d", i), datadir, "mysql")
		im.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\n"+layout+"user = mysql\nport = 3306\n")
		out = append(out, im)
	}
	return out
}

// equivAssembler returns an assembler with a custom FilePath augmenter
// whose suffix "owner.exists" makes "datadir"'s augmentation collide with
// the UserName "exists" augmentation of the "datadir.owner" entry: the
// same column is declared with type String from one base type and Boolean
// from another, in an order that varies by row.
func equivAssembler(workers int) *Assembler {
	a := New()
	a.Workers = workers
	a.AddAugmenter(conftypes.TypeFilePath, Augmenter{
		Suffix: "owner.exists",
		Type:   conftypes.TypeString,
		Compute: func(v string, im *sysimage.Image) (string, bool) {
			if fm := im.Resolve(v); fm != nil {
				return "owned-by-" + fm.Owner, true
			}
			return "", false
		},
	})
	return a
}

// TestParallelEquivalence locks AssembleTraining to the serial oracle
// (oracle_test.go): attribute order, inferred types, augmented columns,
// and every row must be deep-equal on the seed corpus at every pool size.
// Run under -race this also exercises the worker pool for data races.
func TestParallelEquivalence(t *testing.T) {
	images := equivCorpus(t)
	want, err := assembleTrainingSerial(equivAssembler(1), images)
	if err != nil {
		t.Fatal(err)
	}
	collided, _ := want.Attr("mysql:mysqld/datadir.owner.exists")
	if !collided.Augmented || collided.Type != conftypes.TypeString {
		t.Fatalf("collision column = %+v, want augmented String (the last row's last declaration)", collided)
	}
	if mixed, _ := want.Attr("mysql:mysqld/datadir.owner"); mixed.Augmented || mixed.Type != conftypes.TypeUserName {
		t.Fatalf("entry/augment column = %+v, want a non-augmented UserName entry", mixed)
	}

	for _, workers := range []int{1, 0, 2, 3, 7} {
		got, err := equivAssembler(workers).AssembleTraining(images)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Attributes(), want.Attributes()) {
			t.Fatalf("workers=%d: attribute declarations diverge", workers)
		}
		if !reflect.DeepEqual(got.Rows(), want.Rows()) {
			t.Fatalf("workers=%d: rows diverge", workers)
		}
		if got.CSV() != want.CSV() {
			t.Fatalf("workers=%d: CSV rendering diverges", workers)
		}
	}
}

// TestWorkersOneUsesSerialPath pins the inline Workers=1 path to the
// serial oracle.
func TestWorkersOneUsesSerialPath(t *testing.T) {
	images := equivCorpus(t)[:5]
	a := New()
	a.Workers = 1
	got, err := a.AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	want, err := assembleTrainingSerial(New(), images)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatal("Workers=1 path diverges from serial reference")
	}
}

// TestParallelParseErrorMatchesSerial verifies both paths surface the same
// (first, in image order) parse error with the image context attached.
func TestParallelParseErrorMatchesSerial(t *testing.T) {
	images := equivCorpus(t)[:6]
	images[2].ConfigFiles = append(images[2].ConfigFiles, sysimage.ConfigFile{
		App: "apache", Path: "/etc/apache2/broken.conf", Content: "<VirtualHost *:80>\n",
	})
	serial := New()
	serial.Workers = 1
	_, serr := serial.AssembleTraining(images)
	par := New()
	par.Workers = 4
	_, perr := par.AssembleTraining(images)
	if serr == nil || perr == nil {
		t.Fatalf("expected both paths to fail: serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("error divergence:\nserial:   %v\nparallel: %v", serr, perr)
	}
}

// TestAssembleTelemetry verifies the counters the assembler reports.
func TestAssembleTelemetry(t *testing.T) {
	images := equivCorpus(t)[:10]
	rec := telemetry.New()
	a := New()
	a.Telemetry = rec
	ds, err := a.AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(telemetry.CounterImagesParsed); got != int64(len(images)) {
		t.Fatalf("images parsed counter = %d, want %d", got, len(images))
	}
	if got := rec.Counter(telemetry.CounterAttrsDeclared); got != int64(len(ds.Attributes())) {
		t.Fatalf("attrs declared counter = %d, want %d", got, len(ds.Attributes()))
	}
	if rec.Counter(telemetry.CounterFilesParsed) == 0 {
		t.Fatal("files parsed counter not incremented")
	}
}
