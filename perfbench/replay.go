package main

import (
	"bytes"
	"context"
	"os"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/conftypes"
	"repro/internal/detect"
	"repro/internal/sysimage"
)

// streamSink is a stand-alone assemble.TargetSink with the compiled
// plan's type and naming rules: declared types come from the plan's type
// table, unseen entries are inferred once per image, and every value is
// stored per attribute. It lets the replay time target assembly apart
// from the checks that consume it.
type streamSink struct {
	fw    *encore.Framework
	img   *sysimage.Image
	types map[string]conftypes.Type
	names map[string]string
	memo  map[string]conftypes.Type
	cells map[string][]string
}

func newStreamSink(fw *encore.Framework, spec *detect.PlanSpec) *streamSink {
	s := &streamSink{fw: fw, types: map[string]conftypes.Type{}, names: map[string]string{},
		memo: map[string]conftypes.Type{}, cells: map[string][]string{}}
	for _, t := range spec.Types {
		s.types[t.Name] = t.Type
	}
	for _, a := range spec.Attrs {
		s.names[a.Name] = a.Name
	}
	return s
}

func (s *streamSink) reset(img *sysimage.Image) {
	s.img = img
	clear(s.memo)
	clear(s.cells)
}

func (s *streamSink) Declare(string, conftypes.Type, bool) {}

func (s *streamSink) Add(name, value string) { s.cells[name] = append(s.cells[name], value) }

func (s *streamSink) TypeOf(name, value string) conftypes.Type {
	if t, ok := s.types[name]; ok {
		return t
	}
	if t, ok := s.memo[name]; ok {
		return t
	}
	t := s.fw.Assembler.Inferencer.InferValue(value, s.img)
	s.memo[name] = t
	return t
}

func (s *streamSink) InternName(name []byte) string {
	if n, ok := s.names[string(name)]; ok {
		return n
	}
	n := string(name)
	s.names[n] = n
	return n
}

// replayLayers runs a workload's own image files through each layer of
// the check path on its own — file read, sysimage.LoadJSON,
// assemble.StreamTarget, Plan.Check, Report.AppendJSON and
// alert.Pipeline.Publish — plus planio decode and encode of its plans,
// and records the isolated per-operation costs. e2eUs is the workload's
// per-image scan cost, the base of sysimage.decode_share.
func replayLayers(b *bench, fw *encore.Framework, files []appFile, p *plans, e2eUs float64) error {
	sinks := map[string]*streamSink{}
	for _, app := range apps {
		sinks[app] = newStreamSink(fw, p.live[app].Spec())
	}
	alerts, err := newPipeline(nil)
	if err != nil {
		return err
	}
	var read, decode, stream, check, render, publish time.Duration
	var buf bytes.Buffer
	failed := int64(0)
	for _, f := range files {
		t0 := time.Now()
		data, err := os.ReadFile(f.path)
		t1 := time.Now()
		if err != nil {
			return err
		}
		img, err := sysimage.LoadJSON(data)
		t2 := time.Now()
		if err != nil {
			return err
		}
		sink := sinks[f.app]
		sink.reset(img)
		if err := fw.Assembler.StreamTarget(img, sink); err != nil {
			failed++
		}
		t3 := time.Now()
		rep, err := p.live[f.app].Check(img)
		t4 := time.Now()
		if err != nil {
			return err
		}
		buf.Reset()
		if err := rep.AppendJSON(&buf); err != nil {
			failed++
		}
		t5 := time.Now()
		for _, w := range rep.Warnings {
			alerts.Publish(alert.FromWarning(w, f.app, img.ID, "replay", "plan:"+f.app))
		}
		t6 := time.Now()
		read += t1.Sub(t0)
		decode += t2.Sub(t1)
		stream += t3.Sub(t2)
		check += t4.Sub(t3)
		render += t5.Sub(t4)
		publish += t6.Sub(t5)
	}
	if err := alerts.Shutdown(context.Background()); err != nil {
		return err
	}
	b.ops(int64(len(files)), failed)
	n := float64(len(files))
	b.set("sysimage.read_us", us(read)/n)
	b.set("sysimage.decode_us", us(decode)/n)
	b.set("sysimage.decode_share", us(decode)/n/e2eUs)
	b.set("assemble.stream_us", us(stream)/n)
	b.set("detect.check_us", us(check)/n)
	b.set("detect.render_us", us(render)/n)
	b.set("alert.publish_us", us(publish)/n)

	// Plan codec: decode and re-encode every app's plan enough times to
	// time it above clock resolution.
	const codecReps = 50
	var dec, enc time.Duration
	var codecFailed int64
	for i := 0; i < codecReps; i++ {
		for _, app := range apps {
			t0 := time.Now()
			plan, err := fw.LoadPlan(p.bytes[app])
			t1 := time.Now()
			if err != nil {
				return err
			}
			data := fw.MarshalPlan(plan)
			enc += time.Since(t1)
			dec += t1.Sub(t0)
			if !bytes.Equal(data, p.bytes[app]) {
				codecFailed++
			}
		}
	}
	b.ops(codecReps*int64(len(apps)), codecFailed)
	b.set("planio.decode_us", us(dec)/float64(codecReps*len(apps)))
	b.set("planio.encode_us", us(enc)/float64(codecReps*len(apps)))
	return nil
}
