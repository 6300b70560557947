module whatsupersay/benchmark

go 1.22

require whatsupersay v0.0.0

replace whatsupersay => ../
