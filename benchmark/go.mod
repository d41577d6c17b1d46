module ngdc/benchmark

go 1.22

require ngdc v0.0.0

replace ngdc => ../
