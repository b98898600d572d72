package scenario

// Strict generic-value decoding: the parsed YAML/JSON tree is walked by the
// `json` tags the declaration structs carry, so a field is declared once —
// its struct field — and the decoder, the golden round trip and the wire
// form cannot disagree about it.

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
)

// decoder keeps the first failure; everything after it is skipped.
type decoder struct{ err error }

func (d *decoder) fail(path, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
	}
}

// object fills the struct dst from m, field by field in declaration order,
// then rejects the first (by name) key no field claims. path positions the
// messages: "scenario" at the root, "events[2]" or "telemetry" below it —
// a nested path does not repeat the root's name.
func (d *decoder) object(m map[string]any, path string, dst reflect.Value) {
	known := make(map[string]bool, dst.NumField())
	for i := 0; i < dst.NumField() && d.err == nil; i++ {
		key, _, _ := strings.Cut(dst.Type().Field(i).Tag.Get("json"), ",")
		known[key] = true
		if v, ok := m[key]; ok {
			at := path + "." + key
			d.value(v, at, strings.TrimPrefix(at, "scenario."), dst.Field(i))
		}
	}
	unknown := slices.DeleteFunc(slices.Sorted(maps.Keys(m)), func(k string) bool { return known[k] })
	if len(unknown) > 0 {
		d.fail(path, "unknown field %q", unknown[0])
	}
}

// value decodes v into dst by dst's type. at positions a complaint about v
// itself, below is the path its fields and elements carry on from.
func (d *decoder) value(v any, at, below string, dst reflect.Value) {
	switch dst.Kind() {
	case reflect.String:
		if s, ok := v.(string); ok {
			dst.SetString(s)
		} else {
			d.fail(at, "want string, got %s", typeName(v))
		}
	case reflect.Bool:
		if b, ok := v.(bool); ok {
			dst.SetBool(b)
		} else {
			d.fail(at, "want bool, got %s", typeName(v))
		}
	case reflect.Int64:
		if n, ok := integer(v); ok {
			dst.SetInt(n)
		} else {
			d.fail(at, "want integer, got %s", typeName(v))
		}
	case reflect.Float64:
		switch n := v.(type) {
		case int64:
			dst.SetFloat(float64(n))
		case float64:
			dst.SetFloat(n)
		default:
			d.fail(at, "want number, got %s", typeName(v))
		}
	case reflect.Pointer: // an optional section
		obj, ok := v.(map[string]any)
		if !ok {
			d.fail(at, "want an object, got %s", typeName(v))
			return
		}
		dst.Set(reflect.New(dst.Type().Elem()))
		d.object(obj, below, dst.Elem())
	case reflect.Slice:
		list, ok := v.([]any)
		if dst.Type().Elem().Kind() == reflect.Int64 {
			d.integers(list, ok, v, at, dst)
		} else {
			d.objects(list, ok, v, at, below, dst)
		}
	}
}

// integers decodes a list of integers; a present empty list stays non-nil.
func (d *decoder) integers(list []any, isList bool, v any, at string, dst reflect.Value) {
	if !isList {
		d.fail(at, "want list of integers, got %s", typeName(v))
		return
	}
	out := make([]int64, 0, len(list))
	for i, e := range list {
		if n, ok := integer(e); ok {
			out = append(out, n)
		} else if f, isFloat := e.(float64); isFloat {
			d.fail(fmt.Sprintf("%s[%d]", at, i), "want integer, got %g", f)
		} else {
			d.fail(fmt.Sprintf("%s[%d]", at, i), "want integer, got %s", typeName(e))
		}
	}
	dst.Set(reflect.ValueOf(out))
}

// objects decodes a list of declarations. Every element must be an object
// before the first one's fields are looked at.
func (d *decoder) objects(list []any, isList bool, v any, at, below string, dst reflect.Value) {
	if !isList {
		d.fail(at, "want a list, got %s", typeName(v))
		return
	}
	for i, e := range list {
		if _, ok := e.(map[string]any); !ok {
			d.fail(fmt.Sprintf("%s[%d]", at, i), "want an object, got %s", typeName(e))
			return
		}
	}
	for i, e := range list {
		elem := reflect.New(dst.Type().Elem()).Elem()
		d.object(e.(map[string]any), fmt.Sprintf("%s[%d]", below, i), elem)
		dst.Set(reflect.Append(dst, elem))
	}
}

// integer accepts an int64, or the float64 JSON hands over for a whole number.
func integer(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		if n == float64(int64(n)) {
			return int64(n), true
		}
	}
	return 0, false
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case string:
		return "string"
	case int64:
		return "integer"
	case float64:
		return "number"
	case bool:
		return "bool"
	case []any:
		return "list"
	case map[string]any:
		return "object"
	}
	return fmt.Sprintf("%T", v)
}
