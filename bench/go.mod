module jpegact/bench

go 1.22

require jpegact v0.0.0

replace jpegact => ../
