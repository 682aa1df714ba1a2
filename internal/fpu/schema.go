package fpu

import (
	"fmt"

	"teva/internal/netlist"
)

// fieldSpec is one named bus crossing a pipeline-register boundary.
type fieldSpec struct {
	name  string
	width int
}

// schema is the ordered set of fields held in one pipeline register rank.
// Stage netlists declare their primary inputs/outputs through a schema so
// that consecutive stages agree on bit positions by construction.
type schema struct {
	fields []fieldSpec
	total  int
}

func newSchema(fields ...fieldSpec) *schema {
	s := &schema{}
	for _, f := range fields {
		s.add(f.name, f.width)
	}
	return s
}

func (s *schema) add(name string, width int) {
	if width <= 0 {
		panic(fmt.Sprintf("fpu: field %q has width %d", name, width))
	}
	for _, f := range s.fields {
		if f.name == name {
			panic(fmt.Sprintf("fpu: duplicate field %q", name))
		}
	}
	s.fields = append(s.fields, fieldSpec{name: name, width: width})
	s.total += width
}

// equal reports whether two schemas have identical field sequences.
func (s *schema) equal(o *schema) bool {
	if len(s.fields) != len(o.fields) {
		return false
	}
	for i, f := range s.fields {
		if o.fields[i] != f {
			return false
		}
	}
	return true
}

// sb is the stage-construction context: a netlist builder plus the decoded
// input fields and the accumulated output fields.
type sb struct {
	*netlist.Builder
	in      map[string]netlist.Bus
	inOrder *schema
	out     *schema
	outBus  netlist.Bus
}

// newStageBuilder declares the stage's primary inputs per the input schema
// and returns the construction context.
func newStageBuilder(name string, lib libT, seed uint64, in *schema) *sb {
	b := netlist.NewBuilder(name, lib, seed)
	ctx := &sb{
		Builder: b,
		in:      make(map[string]netlist.Bus, len(in.fields)),
		inOrder: in,
		out:     newSchema(),
	}
	for _, f := range in.fields {
		ctx.in[f.name] = b.Input(f.width)
	}
	return ctx
}

// get returns the named input field bus.
func (c *sb) get(name string) netlist.Bus {
	bus, ok := c.in[name]
	if !ok {
		panic(fmt.Sprintf("fpu: stage reads unknown field %q", name))
	}
	return bus
}

// bit returns a single-bit input field.
func (c *sb) bit(name string) netlist.NetID {
	bus := c.get(name)
	if len(bus) != 1 {
		panic(fmt.Sprintf("fpu: field %q is %d bits, not 1", name, len(bus)))
	}
	return bus[0]
}

// put declares an output field.
func (c *sb) put(name string, bus netlist.Bus) {
	c.out.add(name, len(bus))
	c.outBus = append(c.outBus, bus...)
}

// putBit declares a single-bit output field.
func (c *sb) putBit(name string, net netlist.NetID) { c.put(name, netlist.Bus{net}) }

// forward copies an input field to the output unchanged (a pipeline
// register feed-through).
func (c *sb) forward(names ...string) {
	for _, n := range names {
		c.put(n, c.get(n))
	}
}

// finish builds the netlist and returns it with the output schema.
func (c *sb) finish() (*netlist.Netlist, *schema, error) {
	c.Output(c.outBus)
	n, err := c.Build()
	return n, c.out, err
}
