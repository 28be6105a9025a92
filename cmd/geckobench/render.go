package main

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"
)

// renderTable prints an experiment's rows — a slice of row structs, or one
// struct — as an aligned table driven by the row type alone: one column per
// leaf field, in declaration order (embedded structs flattened, nested ones
// as Outer.Inner, exactly the leaves of the JSON encoding), then one per
// derived value the row type offers as a niladic method (Total). Cells are
// formatted by type: durations rounded, byte counts scaled, names by their
// String method.
func renderTable(w io.Writer, rows any) {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		one := reflect.MakeSlice(reflect.SliceOf(v.Type()), 0, 1)
		v = reflect.Append(one, v)
	}
	cols := columns(v.Type().Elem(), nil, "")
	table := make([][]string, 1, v.Len()+1)
	for _, c := range cols {
		table[0] = append(table[0], c.name)
	}
	for i := 0; i < v.Len(); i++ {
		line := make([]string, len(cols))
		for j, c := range cols {
			line[j] = c.cell(v.Index(i))
		}
		table = append(table, line)
	}
	width := make([]int, len(cols))
	for _, line := range table {
		for j, cell := range line {
			if n := len([]rune(cell)); n > width[j] {
				width[j] = n
			}
		}
	}
	for _, line := range table {
		var b strings.Builder
		for j, cell := range line {
			if j > 0 {
				b.WriteString("  ")
			}
			pad := strings.Repeat(" ", width[j]-len([]rune(cell)))
			if cols[j].text {
				b.WriteString(cell + pad)
			} else {
				b.WriteString(pad + cell)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// column is one table column: its header, how to read its cell out of a row,
// and whether it holds text (left-aligned) or a quantity (right-aligned).
type column struct {
	name string
	text bool
	cell func(row reflect.Value) string
}

// columns flattens a row type into its columns. index is the field path from
// the row to the struct being flattened and prefix its header prefix.
func columns(t reflect.Type, index []int, prefix string) []column {
	var cols []column
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			sub := prefix
			if !f.Anonymous {
				sub += f.Name + "."
			}
			cols = append(cols, columns(f.Type, path, sub)...)
			continue
		}
		cols = append(cols, column{
			name: prefix + f.Name,
			text: f.Type.Kind() == reflect.String,
			cell: func(row reflect.Value) string { return formatCell(f.Name, row.FieldByIndex(path)) },
		})
	}
	if len(index) > 0 {
		return cols
	}
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if m.Type.NumIn() != 1 || m.Type.NumOut() != 1 || m.Name == "String" {
			continue
		}
		cols = append(cols, column{
			name: m.Name + "()",
			cell: func(row reflect.Value) string { return formatCell(m.Name, row.Method(m.Index).Call(nil)[0]) },
		})
	}
	return cols
}

// formatCell renders one value by its type, and for byte counts its name.
func formatCell(name string, v reflect.Value) string {
	switch x := v.Interface().(type) {
	case time.Duration:
		return fmtDur(x)
	case fmt.Stringer:
		return x.String()
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return fmtFloat(v.Float())
	case reflect.Int, reflect.Int64:
		if strings.HasSuffix(name, "Bytes") {
			return formatBytes(v.Int())
		}
	}
	return fmt.Sprint(v.Interface())
}

// fmtFloat keeps five significant digits of a ratio and whole numbers of a
// rate.
func fmtFloat(f float64) string {
	if f >= 1e5 || f <= -1e5 {
		return fmt.Sprintf("%.0f", f)
	}
	return fmt.Sprintf("%.5g", f)
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.1fTB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func fmtDur(d time.Duration) string {
	if d >= time.Second {
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
	return d.Round(time.Microsecond).String()
}
