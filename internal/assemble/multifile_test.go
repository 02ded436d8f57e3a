package assemble

import (
	"testing"

	"repro/internal/conftypes"
	"repro/internal/sysimage"
)

// multiFileImage builds an Apache image whose modules live in an included
// conf.d fragment, mirroring the multi-file layout real distributions use.
func multiFileImage(id string) *sysimage.Image {
	im := sysimage.New(id)
	im.Users["root"] = &sysimage.User{Name: "root", UID: 0, IsAdmin: true}
	im.Users["apache"] = &sysimage.User{Name: "apache", UID: 48, GID: 48}
	im.Groups["apache"] = &sysimage.Group{Name: "apache", GID: 48}
	im.AddDir("/etc/httpd", "root", "root", 0o755)
	im.AddDir("/etc/httpd/conf.d", "root", "root", 0o755)
	im.AddRegular("/etc/httpd/modules/libphp5.so", "root", "root", 0o755, 64)
	im.AddRegular("/etc/httpd/conf.d/modules.conf", "root", "root", 0o644, 50)
	im.SetConfig("apache", "/etc/httpd/conf/httpd.conf",
		"ServerRoot /etc/httpd\nUser apache\nInclude conf.d/modules.conf\n")
	im.AddConfig("apache", "/etc/httpd/conf.d/modules.conf",
		"LoadModule php5_module modules/libphp5.so\n")
	return im
}

func TestAssembleMergesIncludedFragments(t *testing.T) {
	images := []*sysimage.Image{multiFileImage("a"), multiFileImage("b")}
	d, err := New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	// The fragment's entries are first-class attributes.
	lm, ok := d.Attr("apache:LoadModule/arg2")
	if !ok || lm.Type != conftypes.TypePartialFilePath {
		t.Fatalf("fragment entry = %+v ok=%v", lm, ok)
	}
	if v, ok := d.Rows()[0].First("apache:LoadModule/arg2"); !ok || v != "modules/libphp5.so" {
		t.Fatalf("fragment value = %q ok=%v", v, ok)
	}
	// The Include directive itself is typed as a partial path (its target
	// sits under ServerRoot).
	inc, ok := d.Attr("apache:Include")
	if !ok || inc.Type != conftypes.TypePartialFilePath {
		t.Fatalf("Include attr = %+v ok=%v", inc, ok)
	}
}

func TestAssembleTargetWithFragments(t *testing.T) {
	training, err := New().AssembleTraining([]*sysimage.Image{multiFileImage("a")})
	if err != nil {
		t.Fatal(err)
	}
	target := multiFileImage("t")
	td, err := New().AssembleTarget(target, training)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := td.Rows()[0].First("apache:LoadModule/arg2"); !ok {
		t.Fatal("fragment entries missing from target assembly")
	}
}

func TestConfigsForAndAddConfig(t *testing.T) {
	im := multiFileImage("x")
	cfgs := im.ConfigsFor("apache")
	if len(cfgs) != 2 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if cfgs[0].Path != "/etc/httpd/conf/httpd.conf" {
		t.Fatalf("primary config = %s", cfgs[0].Path)
	}
	// ConfigFor returns the primary only.
	if im.ConfigFor("apache").Path != cfgs[0].Path {
		t.Fatal("ConfigFor should return the primary file")
	}
	// SetConfig replaces only the primary, leaving fragments alone.
	im.SetConfig("apache", cfgs[0].Path, "ServerRoot /etc/httpd\n")
	if len(im.ConfigsFor("apache")) != 2 {
		t.Fatal("SetConfig must not drop fragments")
	}
	if len(im.ConfigsFor("nginx")) != 0 {
		t.Fatal("unknown app should have no configs")
	}
}
